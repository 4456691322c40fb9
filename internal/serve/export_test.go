package serve

// SetPublishHook makes every compaction publish call f first, outside the
// session lock, until the returned restore func runs.
func SetPublishHook(f func()) (restore func()) {
	publishHook = f
	return func() { publishHook = nil }
}
