package serve

import "errors"

// SetPublishHook makes every compaction publish call f first, outside the
// session lock, until the returned restore func runs.
func SetPublishHook(f func()) (restore func()) {
	publishHook = f
	return func() { publishHook = nil }
}

// SetDeleteHook makes every Delete call f between dropping the session from
// the registry and removing its directory, until the returned restore func
// runs.
func SetDeleteHook(f func()) (restore func()) {
	deleteHook = f
	return func() { deleteHook = nil }
}

// StatusOf returns the HTTP status an error from the registry or a session
// answers with, or 0 for an error that carries none.
func StatusOf(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return 0
}
