//go:build !unix

package dshard

import "os/exec"

// detach is a no-op where there are no process groups: a worker shares the
// coordinator's console, and a Ctrl-C reaches both.
func detach(*exec.Cmd) {}
