package memory

import "unsafe"

// callerFP returns the frame pointer of its caller: the address at which
// the caller saved its own caller's frame pointer, one word below its
// return address. Implemented in fp_amd64.s.
func callerFP() unsafe.Pointer
