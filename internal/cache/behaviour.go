// Code generated by go test ./internal/cache -run TestBehaviourFingerprint -update; DO NOT EDIT.

package cache

// Behaviour fingerprints the repository's recorded simulated output: the
// SHA-256 of the driver, scale and engine digest rows and of every figure
// golden. Every key folds it in, so behaviour that moves re-addresses
// every stored result. TestBehaviourFingerprint recomputes it.
const Behaviour = "dfe3ab4c7b2549ceac2ed2737ed996f141ccccceac138aa4cd71322b761990f9"
