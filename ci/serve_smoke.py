#!/usr/bin/env python3
"""CI clients for the `memoria serve` smoke job.

Two subcommands, both speaking the line protocol of doc/PROTOCOL.md
over a Unix-domain socket:

  round SOCK PREFIX REQ.json...
      Send every request file on its own concurrent connection; write
      each response line to PREFIX<i>.txt. Fails unless every response
      has status "ok" and echoes the request's id.

  probes SOCK SERVER_PID
      Exercise the typed non-ok responses against a --jobs 1
      --max-queue 1 server: a slow request occupies the only in-flight
      slot, a second request must answer "overloaded", a timeout_ms=0
      request answers "timeout" (sent on the same connection — fresh
      connects would race the drain below), and after SIGTERM the
      draining server must still answer the slow request "ok".
"""

import json
import os
import signal
import socket
import sys
import threading
import time


def connect(path, tries=250):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    for i in range(tries):
        try:
            s.connect(path)
            return s
        except (FileNotFoundError, ConnectionRefusedError):
            if i == tries - 1:
                raise
            time.sleep(0.02)


def recv_response(sock):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise EOFError("server closed the connection mid-response")
        buf += chunk
    return buf.decode().strip()


def ask(sock, line):
    sock.sendall(line.strip().encode() + b"\n")
    return recv_response(sock)


def cmd_round(sock_path, prefix, req_files):
    results = [None] * len(req_files)

    def client(i, path):
        with open(path) as f:
            req = f.read()
        s = connect(sock_path)
        results[i] = ask(s, req)
        s.close()

    threads = [
        threading.Thread(target=client, args=(i, p))
        for i, p in enumerate(req_files)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, (path, body) in enumerate(zip(req_files, results)):
        resp = json.loads(body)
        want_id = json.loads(open(path).read())["id"]
        assert resp["status"] == "ok", f"{path}: {body}"
        assert resp["id"] == want_id, f"{path}: id {resp['id']} != {want_id}"
        with open(f"{prefix}{i}.txt", "w") as out:
            out.write(body + "\n")
    print(f"round: {len(req_files)} concurrent clients ok")


def req(id, **kw):
    body = {
        "schema_version": 1,
        "id": id,
        "source": {"kind": "kernel", "name": "matmul"},
    }
    body.update(kw)
    return json.dumps(body)


def cmd_probes(sock_path, server_pid):
    # Holds the single worker for seconds: exact replay of a large
    # matmul on both caches, the store disabled so a previous smoke run
    # can't have warmed it into returning instantly.
    slow = req(
        "slow",
        n=192,
        replay="runs",
        machines=["cache1", "cache2"],
        store="none",
    )
    light = req("light", n=16, machines=["cache2"], store="none")

    s_slow = connect(sock_path)
    s_slow.sendall(slow.encode() + b"\n")
    time.sleep(0.3)  # the event loop has certainly dispatched it

    s2 = connect(sock_path)
    over = json.loads(ask(s2, light))
    assert over["status"] == "overloaded" and over["retry_after_ms"] > 0, over
    print("probes: queue-full answered overloaded")

    probe = req("t0", n=16, timeout_ms=0, machines=["cache2"], store="none")
    timed = json.loads(ask(s2, probe))
    assert timed["status"] == "timeout" and timed["timeout_ms"] == 0, timed
    s2.close()
    print("probes: timeout_ms=0 answered typed timeout")

    # Graceful drain: stop the server while `slow` computes; the client
    # must still get its answer and the server must exit cleanly (the
    # wait in the workflow checks the exit status).
    os.kill(server_pid, signal.SIGTERM)
    done = json.loads(recv_response(s_slow))
    assert done["status"] == "ok" and done["id"] == "slow", done
    s_slow.close()
    print("probes: draining server answered the in-flight request")


def main():
    cmd = sys.argv[1]
    if cmd == "round":
        cmd_round(sys.argv[2], sys.argv[3], sys.argv[4:])
    elif cmd == "probes":
        cmd_probes(sys.argv[2], int(sys.argv[3]))
    else:
        sys.exit(f"unknown subcommand {cmd!r}")


if __name__ == "__main__":
    main()
