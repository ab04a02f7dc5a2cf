#!/usr/bin/env python3
"""Self-test of the pup benchmark.

    python3 perfbench/selftest.py

Checks, with short runs:
  * BENCHMARK.json lists exactly the metrics the driver reports;
  * one seed gives identical inputs every time, another seed different ones;
  * modeled_comm_us and every count metric are identical across two untraced
    runs and the traced run of fig4_pack and cyclic2d_unpack;
  * every run reaches failed_frac = 0 and a correct result;
  * a corrupted oracle entry makes the run exit nonzero;
  * a PUP_* variable in the environment makes the run refuse to start;
  * a directory holding only BENCHMARK.json and perfbench/ fails cleanly.
Exits 1 on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
EXACT = ("modeled_comm_us", "coll.prs_msgs", "coll.prs_bytes",
         "coll.m2m_msgs", "coll.m2m_bytes", "coll.self_bytes",
         "core.kernels.bytes_computed")


def bench(*args, env=None, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=600)


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def metrics_of(stdout):
    """Every 'name value unit' line the driver prints, as name -> value."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("#", "{")):
            out[parts[0]] = float(parts[1])
    return out


def run_once(workload, seed, trace):
    r = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
              "--trace", str(trace))
    check(r.returncode == 0, "%s seed %d trace %d exits 0" %
          (workload, seed, trace))
    result = json.loads(r.stdout.strip().splitlines()[-1])
    m = metrics_of(r.stdout)
    check(result["correct"] and result["failed"] == 0 and
          m.get("failed_frac") == 0.0,
          "%s trace %d: correct, failed_frac = 0" % (workload, trace))
    return m


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    listed = bench("--list-metrics").stdout.split("\n")
    reported = {(p[0], p[1], p[2]) for p in
                (line.split() for line in listed) if len(p) == 3}
    declared = {(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer")
                for m in manifest[kind]}
    check(reported == declared, "BENCHMARK.json matches the driver's metrics")

    # fig4_pack is not in BENCHMARK.json (see README.md) but stays
    # runnable, so it is checked too.
    workloads = ["fig4_pack", "cyclic2d_unpack", "service_mix"]
    for w in workloads:
        d = [bench("--inputs-digest", "--workload", w, "--seed", s).stdout
             for s in ("1", "1", "2")]
        check(d[0] == d[1] and d[0] != d[2] and d[0].strip(),
              "%s: inputs repeat for one seed and differ for another" % w)

    for w in workloads:
        a = run_once(w, 3, 0)
        b = run_once(w, 3, 0)
        t = run_once(w, 3, 1)
        if w == "service_mix":
            # Fusion follows the real-time batching window, so the service's
            # modeled time and counts are not reproducible run to run.
            continue
        for name in EXACT:
            check(a[name] == b[name] == t[name],
                  "%s: %s identical across runs and the traced run" %
                  (w, name))

    for w in workloads:
        r = bench("--workload", w, "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--corrupt-oracle")
        check(r.returncode != 0, "%s: a corrupted oracle exits nonzero" % w)

    env = dict(os.environ, PUP_THREADS="2")
    r = bench("--workload", "fig4_pack", "--seed", "1", "--seconds", "1",
              "--trace", "0", env=env)
    check(r.returncode != 0 and "{" not in r.stdout,
          "PUP_THREADS in the environment is refused")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = bench("--workload", "fig4_pack", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=bare,
              script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    check(r.returncode != 0 and "{" not in r.stdout,
          "a directory without the library sources fails without a result")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
