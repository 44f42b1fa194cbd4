package gateway

// InprocNodes returns every in-process node the fleet has built, retired ones
// included, for the tests outside the package.
func InprocNodes(gw *Gateway) []*InprocBackend {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return append([]*InprocBackend(nil), gw.owned.inproc...)
}
