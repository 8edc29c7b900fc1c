"""Small helper process that starts the benchmarked commands.

On Linux a child's peak RSS, as `wait4` reports it, includes the memory of
the process that spawned it: exec records the old address space's high
water mark, and that is the parent's. The benchmark holds large outputs
while it checks them, so its commands are spawned from this helper, which
stays small, and their figures are their own.

Protocol, over the SEQPACKET socket whose descriptor is argv[1]: each
request is one JSON message {"argv", "timeout"} carrying the child's
stdout and stderr descriptors; each reply is one JSON message {"code",
"wall", "rss_mb"}. An empty message or a closed socket ends it. Children
inherit this process's working directory and environment.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time


def serve(sock: socket.socket) -> None:
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 20, 2)
        if not msg:
            return
        req = json.loads(msg)
        t0 = time.perf_counter()
        try:
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL,
                                    stdout=fds[0], stderr=fds[1])
        finally:
            for fd in fds:
                os.close(fd)
        timer = threading.Timer(req["timeout"], os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        # Wait without reaping first, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        sock.sendall(json.dumps({"code": proc.returncode, "wall": wall,
                                 "rss_mb": usage.ru_maxrss / 1024}).encode())


if __name__ == "__main__":
    serve(socket.socket(fileno=int(sys.argv[1])))
