"""Open-loop, pipelined load over one ``jpg serve`` connection.

A sender thread writes each submit when it is due, whether or not
earlier ones were answered; the calling thread reads the replies, which
arrive in completion order, decodes each partial with the protocol's
``decode_partial`` and hashes it.  Every request keeps four times: when
it was due, when it was written, when its reply line arrived and when
its bytes were decoded.  Latency runs from *due* to *decoded*, so a
stalled sender or server charges its wait to every request behind it;
``sent - due`` is how late the generator itself ran.
"""

from __future__ import annotations

import hashlib
import json
import queue
import socket
import threading
import time

import numpy as np

from repro.serve import protocol


def submit_body(key: dict) -> bytes:
    """The encoded ``submit`` line for ``key`` without its id, opened at
    the first field so that ``b'{"id":N,' + body`` is the full line."""
    line = json.dumps({"op": "submit", **key}, separators=(",", ":")).encode()
    return line[1:] + b"\n"


def fixed_rate_schedule(rate: float, n: int) -> np.ndarray:
    """Due offsets (seconds) of ``n`` arrivals evenly spaced at ``rate``
    per second."""
    return np.arange(1, n + 1) / rate


def zipf_keys(n_keys: int, n: int, rng: np.random.Generator, skew: float) -> np.ndarray:
    """``n`` key indices, rank ``i`` drawn with weight ``i**-skew``; which
    key holds which rank is shuffled by ``rng`` too."""
    pmf = np.arange(1, n_keys + 1, dtype=np.float64) ** -skew
    ranks = rng.choice(n_keys, size=n, p=pmf / pmf.sum())
    return rng.permutation(n_keys)[ranks]


def run_open_loop(address: str, bodies: list[bytes], keys: np.ndarray, due: np.ndarray,
                  *, max_outstanding: int, timeout: float = 60.0) -> tuple[list[dict], bool]:
    """Send ``bodies[keys[i]]`` at ``start + due[i]`` and collect replies.

    Sending stops early when more than ``max_outstanding`` requests wait
    for a reply (a growing backlog).  Returns one record per request
    sent, in send order, and whether the backlog limit was hit.  A reply
    with ``ok: false`` (e.g. ``queue-full``) or a transport error leaves
    ``ok`` false on the record.
    """
    host, port = address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    records: list[dict] = []
    received = [0]
    backlog = [False]
    stop = threading.Event()
    # one entry per request written, then None: the reader blocks only
    # while a reply is owed
    sent_q: queue.SimpleQueue = queue.SimpleQueue()

    def sender(start: float) -> None:
        try:
            for i, (k, offset) in enumerate(zip(keys.tolist(), due.tolist())):
                if stop.is_set():
                    return
                if len(records) - received[0] > max_outstanding:
                    backlog[0] = True
                    return
                when = start + offset
                delay = when - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                line = b'{"id":%d,' % i + bodies[k]
                sent = time.perf_counter()
                records.append({"key": k, "due": when, "sent": sent, "ok": False})
                sock.sendall(line)
                sent_q.put(i)
        except OSError:
            pass                      # unanswered requests stay failed
        finally:
            sent_q.put(None)

    reader = sock.makefile("rb")
    thread = threading.Thread(target=sender, args=(time.perf_counter() + 0.01,),
                              daemon=True)
    thread.start()
    try:
        while sent_q.get() is not None:
            line = reader.readline()
            recv = time.perf_counter()
            if not line:
                break
            resp = json.loads(line)
            rec = records[resp["id"]]
            rec["recv"] = recv
            if resp.get("ok"):
                data = protocol.decode_partial(resp)
                rec["sha"] = hashlib.sha256(data).hexdigest()
                rec["source"] = resp.get("source")
                rec["ok"] = True
            else:
                rec["code"] = resp.get("code")
            rec["done"] = time.perf_counter()
            received[0] += 1
    except OSError:
        pass                          # unanswered requests stay failed
    finally:
        stop.set()
        thread.join()
        reader.close()
        sock.close()
    return records, backlog[0]
