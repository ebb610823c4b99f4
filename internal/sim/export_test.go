package sim

// RNGProbe draws the next value of the router's tie-break stream, so a test
// can tell whether two routers consumed the same draws.
func (r *NodeRouter) RNGProbe() int64 { return r.rnd.Int63() }
