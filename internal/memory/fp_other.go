//go:build !amd64

package memory

import "unsafe"

// callerFP has no frame-pointer helper off amd64: a nil frame pointer
// sends every CallerLoc call down the runtime.Callers path.
func callerFP() unsafe.Pointer { return nil }
