package ucddcp

// Random instance and sequence generators shared with the external
// ucddcp_test package, whose delta tests import core (which imports this
// package) and so cannot live in package ucddcp.
var (
	RandomInstance = randomInstance
	RandomSequence = randomSequence
)
