"""One ``jpg serve --tcp`` node for the benchmark, and its bootstrap.

Run as a script, this file is the node: it optionally installs the
server-side layer wrappers (``--trace-out FILE``), then hands the rest
of its arguments to the ``jpg`` command-line entry point, so the node
is exactly what ``jpg serve`` runs.  On exit it writes its spans to the
trace file.

:class:`Node` is the benchmark's handle on that process: it starts it
with the current interpreter, waits for the published port, and stops
it through the protocol's ``shutdown`` op, waiting for it to end.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class Node:
    """A running ``jpg serve`` node on an ephemeral loopback port."""

    def __init__(self, root: str, workdir: str, part: str, base: str, base_ncd: str,
                 *, workers: int, max_queue: int, trace: bool):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.trace_path = os.path.join(workdir, "spans.jsonl") if trace else None
        port_file = os.path.join(workdir, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        argv = [sys.executable, os.path.join(HERE, "node.py")]
        if self.trace_path:
            argv += ["--trace-out", self.trace_path]
        argv += ["serve", "-p", part, "--base", base, "--base-ncd", base_ncd,
                 "--tcp", "127.0.0.1:0", "--port-file", port_file,
                 "--cache-dir", os.path.join(workdir, "cache"),
                 "--workers", str(workers), "--max-queue", str(max_queue)]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   TMPDIR=workdir, JPG_WORKERS=str(workers))
        self._log = open(os.path.join(workdir, "node.log"), "wb")
        self.proc = subprocess.Popen(argv, cwd=root, env=env, stdout=self._log,
                                     stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while not os.path.exists(port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(f"jpg serve node did not start (see {workdir}/node.log)")
            time.sleep(0.005)
        with open(port_file, encoding="utf-8") as f:
            self.address = f"127.0.0.1:{int(f.read())}"

    def peak_rss_mb(self) -> float:
        """The node's peak resident set so far (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Drain and stop the node through the protocol, and wait for it."""
        from repro.serve import ServeClient

        try:
            with ServeClient(self.address, timeout=60.0) as client:
                client.shutdown()
            self.proc.wait(timeout=60.0)
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the process has ended (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


def _exit_with_parent(parent: int) -> None:
    """End this node if the benchmark that started it is gone."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def main(argv: list[str]) -> int:
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro.core.cli import main as jpg_main

    if trace_out is None:
        return jpg_main(argv)
    from spans import SERVER_SPANS, Tracer, install_layer_wrappers

    tracer = Tracer()
    install_layer_wrappers(tracer, SERVER_SPANS)
    try:
        return jpg_main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
