#!/usr/bin/env python3
"""Thin client for the mobitherm_serve NDJSON service.

Two transports for the same line protocol:

  * pipe (default): spawn the server binary and talk over stdin/stdout
  * socket: `--connect HOST:PORT` talks to an already-running
    `mobitherm_serve --listen PORT` (with bounded reconnect on a reset
    connection — every op the client issues is safe to re-send)

Modes, each available over either transport:

  # one-shot: submit a request, wait, print the result JSON
  python3 scripts/serve_client.py --binary build/examples/mobitherm_serve \
      --submit '{"scenario":"nexus","app":"paperio","duration_s":5}'

  # CI smoke: submit the same request twice and assert the second is a
  # cache hit whose result payload is byte-identical to the first
  # (needs a fresh server: it asserts absolute stats counters)
  python3 scripts/serve_client.py --connect 127.0.0.1:4100 --smoke

  # CI compare phase: submit a best-arm policy comparison, assert the
  # verdict separates with an early stop, repeat it and assert the rerun
  # is a byte-identical verdict-cache hit
  python3 scripts/serve_client.py --connect 127.0.0.1:4100 --compare

  # CI fault smoke: drive a fault-armed server (spawned with --fault in
  # pipe mode; pre-armed by the operator in socket mode), and assert
  # every job reaches a terminal state with a structured error, while
  # the server keeps serving
  python3 scripts/serve_client.py --binary build/examples/mobitherm_serve \
      --fault-smoke

  # CI socket phase: N concurrent connections submitting a shared request
  # mix; every result payload must be byte-identical to a fresh
  # single-connection reference pass
  python3 scripts/serve_client.py --connect 127.0.0.1:4100 --concurrent 8

  # ask a listening server to exit
  python3 scripts/serve_client.py --connect 127.0.0.1:4100 --shutdown

Responses may carry a structured error object ({"code": ..., "message":
...}); the client renders both that and the legacy string form. When the
server's kMalformedResponse fault truncates a response line, request()
re-sends the request a bounded number of times — the ops the client uses
are safe to repeat (submit dedups through the result cache; status, wait,
result and stats are reads).

Only the python3 standard library is used.
"""

import argparse
import json
import socket
import subprocess
import sys
import threading

RESULT_MARKER = '"result":'

# Armed by --fault-smoke. Every probability is deterministic in the seed,
# so this CI job sees the same injected schedule on every run.
FAULT_SMOKE_SPEC = (
    "seed=7,admission=0.1,crash_before=0.3,crash_after=0.1,"
    "corrupt=0.3,malformed=0.2"
)

TERMINAL_STATES = {"done", "failed", "cancelled", "expired"}


def error_text(response):
    """Render a response's error — structured object or legacy string."""
    err = response.get("error")
    if isinstance(err, dict):
        return "%s: %s" % (err.get("code", "?"), err.get("message", ""))
    return str(err)


def structured_error(response):
    """The error object of a failed response, or None if malformed."""
    err = response.get("error")
    if isinstance(err, dict) and err.get("code"):
        return err
    return None


class BaseClient:
    """Line-oriented request/response over some transport."""

    def __init__(self, max_retries=4):
        self.max_retries = max_retries
        self.resends = 0  # responses that had to be re-requested

    def request_raw(self, line):
        raise NotImplementedError

    def request(self, obj):
        """Send a request; re-send (bounded) when the response line does
        not parse — the injected kMalformedResponse fault truncates lines
        mid-byte, and a real client must survive that."""
        line = json.dumps(obj)
        last_raw = ""
        for _ in range(self.max_retries + 1):
            last_raw = self.request_raw(line)
            try:
                return json.loads(last_raw)
            except json.JSONDecodeError:
                self.resends += 1
        raise RuntimeError(
            "no parseable response after %d attempts; last: %r"
            % (self.max_retries + 1, last_raw[:120])
        )


class ServeClient(BaseClient):
    """Pipe transport: one spawned server process on stdin/stdout."""

    def __init__(self, binary, extra_args=None, max_retries=4):
        super().__init__(max_retries)
        cmd = [binary] + (extra_args or [])
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def request_raw(self, line):
        """Send one request line, return the raw response line."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        response = self.proc.stdout.readline()
        if not response:
            raise RuntimeError("server closed its stdout")
        return response.rstrip("\n")

    def close(self):
        # The spawned server is ours alone: shut it down with the pipe.
        try:
            self.proc.stdin.write('{"op":"shutdown"}\n')
            self.proc.stdin.flush()
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        self.proc.wait(timeout=30)


class SocketClient(BaseClient):
    """Socket transport to a running `mobitherm_serve --listen` server.

    A reset or closed connection is retried with a bounded number of
    reconnects, re-sending the in-flight request — safe because every op
    this client issues is idempotent (submits dedup through the result
    cache; the rest are reads). close() only closes this connection; the
    server keeps running unless --shutdown asked for it explicitly.
    """

    def __init__(self, host, port, max_retries=4, max_reconnects=3):
        super().__init__(max_retries)
        self.host = host
        self.port = port
        self.max_reconnects = max_reconnects
        self.reconnects = 0
        self.sock = None
        self.buf = b""
        self._connect()

    def _connect(self):
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
        self.buf = b""
        self.sock = socket.create_connection(
            (self.host, self.port), timeout=600.0
        )

    def _readline(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionResetError("server closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode("utf-8", errors="replace")

    def request_raw(self, line):
        """Send one request line, return the raw response line;
        reconnect (bounded) when the connection drops mid-exchange."""
        payload = (line + "\n").encode()
        for attempt in range(self.max_reconnects + 1):
            try:
                self.sock.sendall(payload)
                return self._readline()
            except (ConnectionResetError, BrokenPipeError, OSError):
                if attempt == self.max_reconnects:
                    raise
                self.reconnects += 1
                self._connect()
        raise RuntimeError("unreachable")

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def extract_payload(raw_result_line):
    """The verbatim result payload from a raw `result` response line.

    The server splices the cached payload into the response unchanged, so
    byte-comparing this substring across responses is exactly the
    cache-identity guarantee the service makes.
    """
    idx = raw_result_line.index(RESULT_MARKER)
    # Everything from the marker to the response's closing brace.
    return raw_result_line[idx + len(RESULT_MARKER):-1]


def submit_and_fetch(client, request, timeout_s):
    submit = dict(request)
    submit["op"] = "submit"
    response = client.request(submit)
    if not response.get("ok"):
        raise RuntimeError("submit rejected: %s" % error_text(response))
    job = response["job"]
    wait = client.request({"op": "wait", "job": job, "timeout_s": timeout_s})
    if not wait.get("done") or wait.get("state") != "done":
        raise RuntimeError("job %s finished as %s" % (job, wait.get("state")))
    raw = client.request_raw(json.dumps({"op": "result", "job": job}))
    return response, raw


def run_smoke(client, timeout_s):
    request = {"scenario": "nexus", "app": "paperio", "duration_s": 5}

    first, first_raw = submit_and_fetch(client, request, timeout_s)
    if first.get("cached"):
        raise SystemExit("smoke: first submit unexpectedly hit the cache")
    second, second_raw = submit_and_fetch(client, request, timeout_s)
    if not second.get("cached"):
        raise SystemExit("smoke: second submit was not served from cache")

    if extract_payload(first_raw) != extract_payload(second_raw):
        raise SystemExit("smoke: cached payload is not byte-identical")

    stats = client.request({"op": "stats"})
    if stats["cache"]["hits"] < 1:
        raise SystemExit("smoke: stats reports no cache hit")
    if stats["completed"] != 2:
        raise SystemExit(
            "smoke: expected 2 completed jobs, got %s" % stats["completed"]
        )

    # Pack phase: when the server advertises workload packs, drive one
    # pack app through the same cache-identity check, plus an alternate
    # power model (distinct canonical key, so never a cache hit of the
    # baseline run). Servers without packs skip this phase, keeping the
    # smoke usable against any configuration.
    catalog = client.request({"op": "scenarios"})
    packs = catalog.get("packs") or []
    pack_runs = 0
    if packs:
        qualified = packs[0]["apps"][0]
        pack_request = {
            "scenario": "nexus", "app": qualified, "duration_s": 2}
        first, first_raw = submit_and_fetch(client, pack_request, timeout_s)
        if first.get("cached"):
            raise SystemExit("smoke: first pack submit hit the cache")
        second, second_raw = submit_and_fetch(client, pack_request,
                                              timeout_s)
        if not second.get("cached"):
            raise SystemExit("smoke: pack submit repeat was not cached")
        if extract_payload(first_raw) != extract_payload(second_raw):
            raise SystemExit("smoke: cached pack payload differs")
        status = client.request({"op": "status", "job": second["job"]})
        canonical = status.get("canonical", "")
        if ";pack=" + packs[0]["content_hash"] not in canonical:
            raise SystemExit(
                "smoke: pack canonical key does not pin the content hash: "
                "%r" % canonical)
        pack_runs += 2
        models = [m["name"] for m in catalog.get("models", [])]
        alt = [m for m in models if m != "baseline"]
        if alt:
            modeled = dict(pack_request)
            modeled["power_model"] = alt[0]
            third, _ = submit_and_fetch(client, modeled, timeout_s)
            if third.get("cached"):
                raise SystemExit(
                    "smoke: %s-model run hit the baseline cache" % alt[0])
            pack_runs += 1

    # Fan submit: "seeds": N admits lanes seed..seed+N-1 in one request,
    # each an ordinary submit of its seed, one more lane than there are
    # workers. Every lane's payload must equal a plain submit of that seed,
    # which shares the lane's canonical key and so comes back cached, and a
    # repeat of the fan must be fully cached.
    lane_count = max(3, stats.get("workers", 1) + 1)
    fan = dict(request)
    fan.update({"op": "submit", "seed": 7, "seeds": lane_count})
    response = client.request(fan)
    if not response.get("ok"):
        raise SystemExit("smoke: fan submit rejected: %s"
                         % error_text(response))
    lanes = response["jobs"]
    if len(lanes) != lane_count or any(l.get("cached") for l in lanes):
        raise SystemExit("smoke: fan submit should run %d uncached lanes"
                         % lane_count)
    for k, lane in enumerate(lanes):
        wait = client.request(
            {"op": "wait", "job": lane["job"], "timeout_s": timeout_s})
        if not wait.get("done") or wait.get("state") != "done":
            raise SystemExit("smoke: fan lane %s finished as %s"
                             % (lane["job"], wait.get("state")))
        lane_raw = client.request_raw(
            json.dumps({"op": "result", "job": lane["job"]}))
        plain = dict(request)
        plain["seed"] = fan["seed"] + k
        plain_response, plain_raw = submit_and_fetch(client, plain,
                                                     timeout_s)
        if not plain_response.get("cached"):
            raise SystemExit("smoke: plain submit of seed %d missed fan "
                             "lane %d's cache entry" % (plain["seed"], k))
        if extract_payload(lane_raw) != extract_payload(plain_raw):
            raise SystemExit("smoke: fan lane %d payload differs from a "
                             "plain submit of seed %d" % (k, plain["seed"]))

    repeat = client.request(fan)
    if not repeat.get("ok") or not all(
            lane.get("cached") for lane in repeat["jobs"]):
        raise SystemExit("smoke: repeated fan submit was not fully cached")

    stats = client.request({"op": "stats"})
    print("smoke OK: second submit cache-hit, payload byte-identical,")
    if pack_runs:
        print("  pack phase: %d runs against %d advertised pack(s), "
              "content-hash-pinned keys" % (pack_runs, len(packs)))
    print("  fan submit ran %d lanes, each equal to a plain submit of its "
          "seed; repeat cached" % lane_count)
    print(
        "  stats: hits=%d misses=%d size=%d"
        % (
            stats["cache"]["hits"],
            stats["cache"]["misses"],
            stats["cache"]["size"],
        )
    )


def run_compare(client, timeout_s):
    """CI compare phase: submit the paper's Sec. IV-C policy comparison
    (IPA vs. the app-aware governor, both with BML) as one `compare` job,
    assert the verdict separates with per-arm statistics and stopped
    before the seed budget, then repeat it and assert the rerun is a
    verdict-cache hit with byte-identical bytes and no new rounds."""
    request = {
        "op": "compare",
        "arms": [
            {"scenario": "odroid", "policy": "default", "with_bml": True,
             "duration_s": 120},
            {"scenario": "odroid", "policy": "proposed", "with_bml": True,
             "duration_s": 120},
        ],
        "metric": "peak_temp_c",
        "max_seeds": 8,
        "round_seeds": 2,
        "min_seeds": 2,
    }

    def fetch_verdict(job):
        wait = client.request(
            {"op": "wait", "job": job, "timeout_s": timeout_s})
        if not wait.get("done") or wait.get("state") != "done":
            raise SystemExit(
                "compare: job %s finished as %s" % (job, wait.get("state")))
        raw = client.request_raw(json.dumps({"op": "result", "job": job}))
        verdict = json.loads(raw)["result"]["compare"]
        return raw, verdict

    first = client.request(request)
    if not first.get("ok"):
        raise SystemExit("compare: rejected: %s" % error_text(first))
    if first.get("cached"):
        raise SystemExit("compare: first comparison unexpectedly cached")
    first_raw, verdict = fetch_verdict(first["job"])

    if not verdict.get("separated"):
        raise SystemExit("compare: arms did not statistically separate")
    if verdict.get("winner") != "proposed+bml":
        raise SystemExit(
            "compare: expected the app-aware governor to win on peak "
            "temperature, got %r" % verdict.get("winner"))
    if not verdict.get("early_stop") or \
            verdict["seeds_per_arm"] >= request["max_seeds"]:
        raise SystemExit(
            "compare: separated pair should stop before the %d-seed "
            "budget, used %s" % (request["max_seeds"],
                                 verdict.get("seeds_per_arm")))
    for arm in verdict["arms"]:
        if not all(k in arm for k in ("name", "mean", "ci95", "n")):
            raise SystemExit("compare: arm stats incomplete: %r" % arm)
        if arm["n"] < 2:
            raise SystemExit("compare: verdict from < 2 samples: %r" % arm)

    rounds_before = client.request({"op": "stats"})["compare_rounds"]

    repeat = client.request(request)
    if not repeat.get("ok") or not repeat.get("cached"):
        raise SystemExit(
            "compare: repeated comparison was not served from the verdict "
            "cache")
    repeat_raw, _ = fetch_verdict(repeat["job"])
    if extract_payload(first_raw) != extract_payload(repeat_raw):
        raise SystemExit("compare: cached verdict is not byte-identical")

    stats = client.request({"op": "stats"})
    if stats["compare_rounds"] != rounds_before:
        raise SystemExit("compare: cached repeat re-ran rounds")
    if stats["compare_early_stops"] < 1 or stats["compare_lane_runs"] < 4:
        raise SystemExit(
            "compare: stats counters missing the comparison "
            "(early_stops=%s lane_runs=%s)"
            % (stats["compare_early_stops"], stats["compare_lane_runs"]))
    print(
        "compare OK: winner=%s separated at %d seeds/arm (budget %d), "
        "repeat cache-hit byte-identical"
        % (verdict["winner"], verdict["seeds_per_arm"],
           request["max_seeds"]))
    print(
        "  arms: %s"
        % "; ".join(
            "%s mean=%.3f ci95=%.4f n=%d"
            % (a["name"], a["mean"], a["ci95"], a["n"])
            for a in verdict["arms"]))


def run_fault_smoke(binary, timeout_s, connect=None):
    """Drive a fault-armed server and assert it degrades, never breaks:
    every accepted job terminates, every rejection and failure carries a
    structured error, no job slot leaks, and the server answers to the
    end.

    In pipe mode the server is spawned here with the canonical fault
    spec and two workers; with `connect` the server must already be
    listening with `--fault` armed (use FAULT_SMOKE_SPEC for the canonical
    schedule). The jobs include a small compare, whose lanes the server's
    idle workers help run, so injected crashes also hit those lanes.
    """
    if connect is not None:
        client = SocketClient(*connect)
    else:
        client = ServeClient(
            binary,
            extra_args=["--workers", "2", "--retries", "4",
                        "--fault", FAULT_SMOKE_SPEC],
        )
    try:
        jobs = []
        rejected = 0
        # Duplicate seeds exercise the result cache under corruption; the
        # short duration keeps each simulated job quick.
        requests = [
            {
                "op": "submit",
                "scenario": "nexus",
                "app": "paperio",
                "duration_s": 2,
                "seed": seed,
            }
            for seed in (1, 2, 3, 1, 2, 4, 1, 3)
        ]
        requests.append(
            {
                "op": "compare",
                "arms": [
                    {"scenario": "nexus", "app": "paperio",
                     "policy": policy, "duration_s": 2}
                    for policy in ("throttled", "unthrottled")
                ],
                "max_seeds": 4,
                "round_seeds": 2,
            }
        )
        for request in requests:
            response = client.request(request)
            if response.get("ok"):
                jobs.append(response["job"])
                continue
            rejected += 1
            if structured_error(response) is None:
                raise SystemExit(
                    "fault-smoke: rejection without a structured error: %r"
                    % response
                )
        if not jobs:
            raise SystemExit("fault-smoke: every submit was rejected")

        done = failed = 0
        for job in jobs:
            wait = client.request(
                {"op": "wait", "job": job, "timeout_s": timeout_s}
            )
            state = wait.get("state")
            if state not in TERMINAL_STATES:
                raise SystemExit(
                    "fault-smoke: job %s stuck in state %r" % (job, state)
                )
            status = client.request({"op": "status", "job": job})
            if state == "done":
                done += 1
                result = client.request({"op": "result", "job": job})
                if not result.get("ok"):
                    raise SystemExit(
                        "fault-smoke: done job %s has no result: %s"
                        % (job, error_text(result))
                    )
            else:
                failed += 1
                if structured_error(status) is None:
                    raise SystemExit(
                        "fault-smoke: job %s ended %s without a structured "
                        "error: %r" % (job, state, status)
                    )

        # The server is still healthy: stats answers, nothing queued or
        # running, and the counters account for every submission.
        stats = client.request({"op": "stats"})
        if stats.get("queued") or stats.get("running"):
            raise SystemExit(
                "fault-smoke: leaked job slots (queued=%s running=%s)"
                % (stats.get("queued"), stats.get("running"))
            )
        # Re-sent submits (after truncated responses) are extra accepted
        # submissions the client never tracked, so this is a lower bound.
        if stats.get("submitted", 0) < len(jobs):
            raise SystemExit(
                "fault-smoke: stats.submitted=%s but %s jobs accepted"
                % (stats.get("submitted"), len(jobs))
            )
        print(
            "fault-smoke OK: %d done, %d failed-gracefully, %d rejected;"
            % (done, failed, rejected)
        )
        print(
            "  retries=%s faults_injected=%s stale_served=%s "
            "client_resends=%d"
            % (
                stats.get("retries"),
                stats.get("faults_injected"),
                stats.get("stale_served"),
                client.resends,
            )
        )
    finally:
        client.close()


def run_concurrent(connect, clients, timeout_s):
    """Socket-phase CI check: `clients` concurrent connections submit a
    shared request mix in staggered order, and every result payload must
    be byte-identical to a single-connection reference pass."""
    seeds = list(range(6))

    def seed_request(seed):
        return {"scenario": "nexus", "duration_s": 2, "seed": seed}

    reference = {}
    ref = SocketClient(*connect)
    try:
        for seed in seeds:
            _, raw = submit_and_fetch(ref, seed_request(seed), timeout_s)
            reference[seed] = extract_payload(raw)
    finally:
        ref.close()

    errors = []

    def worker(idx):
        client = SocketClient(*connect)
        try:
            for k in range(len(seeds)):
                seed = seeds[(k + idx) % len(seeds)]
                _, raw = submit_and_fetch(client, seed_request(seed),
                                          timeout_s)
                if extract_payload(raw) != reference[seed]:
                    errors.append(
                        "client %d seed %d: payload differs from the "
                        "single-connection reference" % (idx, seed)
                    )
        except Exception as e:  # noqa: BLE001 - collected and reported
            errors.append("client %d: %s" % (idx, e))
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise SystemExit("concurrent: " + "; ".join(errors[:5]))
    print(
        "concurrent OK: %d clients x %d requests, every payload "
        "byte-identical to the single-connection reference"
        % (clients, len(seeds))
    )


def parse_connect(value):
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            "--connect expects HOST:PORT, got %r" % value
        )
    return host or "127.0.0.1", int(port)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--binary",
        default="build/examples/mobitherm_serve",
        help="path to the mobitherm_serve binary (pipe transport)",
    )
    parser.add_argument(
        "--connect",
        type=parse_connect,
        metavar="HOST:PORT",
        help="talk to a running `mobitherm_serve --listen` server instead "
        "of spawning one",
    )
    parser.add_argument(
        "--submit",
        metavar="JSON",
        help="submit this request object, wait, and print the result",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the cache-identity smoke test (used by CI)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="run the best-arm comparison smoke test: separated verdict, "
        "early stop, byte-identical cached repeat (used by CI)",
    )
    parser.add_argument(
        "--fault-smoke",
        action="store_true",
        help="run the fault-injection smoke test (used by CI); in socket "
        "mode the server must already be armed with --fault",
    )
    parser.add_argument(
        "--concurrent",
        type=int,
        metavar="N",
        help="run N concurrent socket clients and assert byte-identity "
        "(requires --connect)",
    )
    parser.add_argument(
        "--shutdown",
        action="store_true",
        help="send a shutdown op to a listening server (requires --connect)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, help="per-job wait seconds"
    )
    args = parser.parse_args()

    modes = [args.smoke, args.compare, args.fault_smoke, bool(args.submit),
             args.concurrent is not None, args.shutdown]
    if sum(modes) != 1:
        parser.error(
            "exactly one of --smoke, --compare, --fault-smoke, --submit, "
            "--concurrent or --shutdown is required"
        )
    if (args.concurrent is not None or args.shutdown) and args.connect is None:
        parser.error("--concurrent and --shutdown require --connect")

    if args.shutdown:
        client = SocketClient(*args.connect, max_reconnects=0)
        response = client.request({"op": "shutdown"})
        client.close()
        if not response.get("ok"):
            raise SystemExit("shutdown refused: %s" % error_text(response))
        print("shutdown acknowledged")
        return 0

    if args.concurrent is not None:
        run_concurrent(args.connect, args.concurrent, args.timeout)
        return 0

    if args.fault_smoke:
        run_fault_smoke(args.binary, args.timeout, connect=args.connect)
        return 0

    if args.connect is not None:
        client = SocketClient(*args.connect)
    else:
        client = ServeClient(args.binary)
    try:
        if args.smoke:
            run_smoke(client, args.timeout)
        elif args.compare:
            run_compare(client, args.timeout)
        else:
            _, raw = submit_and_fetch(
                client, json.loads(args.submit), args.timeout
            )
            print(raw)
    finally:
        client.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
