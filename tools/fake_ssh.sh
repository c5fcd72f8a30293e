#!/bin/sh
# Stand-in for ssh in tests and CI: ignores the host argument and runs
# the command string locally, joining the remaining argv with spaces the
# way ssh hands them to the remote shell. Lets the multi-host smoke test
# exercise the ssh launch path -- framing, handshake, host loss -- without a
# real sshd anywhere.
#
# Usage (as WorkerTransport invokes ssh): fake_ssh.sh HOST COMMAND...
host=$1
shift
exec sh -c "$*"
