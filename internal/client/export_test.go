package client

import "time"

// SetCallTimeout shortens the default call deadline for a test; the
// returned func restores it.
func SetCallTimeout(d time.Duration) (restore func()) {
	old := callTimeout
	callTimeout = d
	return func() { callTimeout = old }
}
