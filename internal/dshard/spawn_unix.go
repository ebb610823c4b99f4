//go:build unix

package dshard

import (
	"os/exec"
	"syscall"
)

// detach starts a worker in a process group of its own, so a terminal's
// Ctrl-C reaches only the coordinator.
func detach(cmd *exec.Cmd) { cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true} }
