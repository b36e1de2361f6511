#!/usr/bin/env python3
"""Regenerate `crates/runtime/repld.order`: the functions a `repld` site
executes, which the release link places first in `.text`
(`crates/runtime/build.rs`; DESIGN.md §9.5, "hot text first").

    python3 tools/hot_text.py

It builds release `repld` and `replbench` (and puts `benchmark/Cargo.lock`
back, as `tools/ci.sh` does), then runs every workload of BENCHMARK.json
for 2 s with `--trace 0` and `--trace 1`. Each `repld` the harness starts runs
under a ptrace tracer that sets a one-shot `int3` on every function of
its `.text` and records the ones hit. The file is the union of first
hits over every site process, sorted by name, then every IFUNC sibling
of an executed string function (`__memmove_evex_…` beside
`__memmove_avx_…`), so a CPU that resolves a different variant still
finds it next to the hot region. The same traces give the same file.

Python 3 standard library only (ptrace through ctypes, symbols from
`nm`); x86_64 Linux. A maintenance tool: cargo, the tests and the
benchmark never run it.

Wrapper mode: the driver points REPLD_BIN at this script and sets
HOT_TEXT_REPLD to the real binary. The harness then spawns the script
in place of `repld`; it forks the tracer, lets it attach
(`prctl(PR_SET_PTRACER)`), and execs the real `repld` under its own pid
and parent, so the harness's `/proc` view of its sites is unchanged.
"""

import ctypes
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORDER = os.path.join(ROOT, "crates", "runtime", "repld.order")
# Every run's `replbench --seed` and `--seconds`. Ten runs start 195
# site processes; two tool runs on one tree differ by a name or none.
SEED, SECONDS = 1, 2

PTRACE_PEEKUSER = 3
PTRACE_POKEUSER = 6
PTRACE_CONT = 7
PTRACE_SEIZE = 0x4206
PTRACE_LISTEN = 0x4208
PTRACE_O_TRACECLONE = 0x08
PTRACE_O_TRACEEXEC = 0x10
PTRACE_O_EXITKILL = 0x100000
PTRACE_EVENT_EXEC = 4
PTRACE_EVENT_STOP = 128
PR_SET_PTRACER = 0x59616D61
WALL = 0x40000000
RIP = 16 * 8  # offsetof(struct user_regs_struct, rip)
INT3 = 0xCC

# The string-function variants glibc picks between at start-up (IFUNC)
# are named `__<family>_<isa>…`.
ISA_TAGS = ("sse2", "ssse3", "sse4", "avx", "evex", "erms")


def libc():
    lib = ctypes.CDLL(None, use_errno=True)
    lib.ptrace.restype = ctypes.c_long
    lib.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
    lib.prctl.restype = ctypes.c_int
    lib.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    return lib


def ptrace(lib, req, pid, addr=0, data=0):
    ctypes.set_errno(0)
    ret = lib.ptrace(req, pid, addr, data)
    err = ctypes.get_errno()
    if ret == -1 and err:
        raise OSError(err, f"ptrace({req:#x}, {pid}): {os.strerror(err)}")
    return ret


def exec_segment(path):
    """`(lo, hi)` of the executable PT_LOAD segment, link-time addresses."""
    with open(path, "rb") as f:
        ehdr = f.read(64)
        if ehdr[:4] != b"\x7fELF" or ehdr[4] != 2:
            sys.exit(f"hot_text: {path} is not a 64-bit ELF file")
        (phoff,) = struct.unpack_from("<Q", ehdr, 32)
        phentsize, phnum = struct.unpack_from("<HH", ehdr, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    for i in range(phnum):
        p_type, p_flags, _, vaddr, _, _, memsz, _ = struct.unpack_from("<IIQQQQQQ", table, i * phentsize)
        if p_type == 1 and p_flags & 1:
            return vaddr, vaddr + memsz
    sys.exit(f"hot_text: {path} has no executable segment")


def symbols(path):
    """The functions of `path`'s executable segment: `{addr: [names]}`
    (aliases share an address) and `{name: size}`."""
    lo, hi = exec_segment(path)
    out = subprocess.run(["nm", "-S", "--defined-only", path], check=True, capture_output=True, text=True)
    by_addr, sizes = {}, {}
    for line in out.stdout.splitlines():
        fields = line.split()
        if len(fields) != 4 or fields[2] not in "tTwWi":
            continue
        addr, size = int(fields[0], 16), int(fields[1], 16)
        if lo <= addr < hi and size > 0:
            by_addr.setdefault(addr, []).append(fields[3])
            sizes[fields[3]] = size
    return (lo, hi), by_addr, sizes


# ---- wrapper mode: one site process under its tracer ------------------------


def wrapper(argv):
    real, outdir = os.environ["HOT_TEXT_REPLD"], os.environ["HOT_TEXT_DIR"]
    me = os.getpid()
    go_r, go_w = os.pipe()
    ready_r, ready_w = os.pipe()
    tracer = os.fork()
    if tracer == 0:
        status = 1
        try:
            os.close(go_w)
            os.close(ready_r)
            trace(me, real, outdir, go_r, ready_w)
            status = 0
        finally:
            os._exit(status)
    os.close(go_r)
    os.close(ready_w)
    # Needed where Yama lets a process trace only its descendants; without
    # Yama the call fails with EINVAL and is not needed.
    libc().prctl(PR_SET_PTRACER, tracer, 0, 0, 0)
    os.write(go_w, b"g")
    if os.read(ready_r, 1) != b"r":
        sys.exit("hot_text: the tracer did not attach")
    os.execv(real, [real] + argv)


def trace(tracee, real, outdir, go_r, ready_w):
    # The harness reads a site's banner from its stdout until the pipe
    # closes; the tracer must not hold it open.
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    with open(os.path.join(outdir, "symbols.json")) as f:
        table = json.load(f)
    lo, hi = table["segment"]
    lib = libc()
    os.read(go_r, 1)
    ptrace(lib, PTRACE_SEIZE, tracee, 0, PTRACE_O_TRACEEXEC | PTRACE_O_TRACECLONE | PTRACE_O_EXITKILL)
    open(os.path.join(outdir, f"{tracee}.run"), "w").close()
    os.write(ready_w, b"r")
    base, mem, original, hits = None, None, {}, set()
    while True:
        pid, status = os.waitpid(-1, WALL)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            if pid == tracee:
                break
            continue
        sig, event = os.WSTOPSIG(status), status >> 16
        if event == PTRACE_EVENT_EXEC:
            # The new image is mapped and has run nothing: arm every
            # function with one write of the whole segment.
            base = load_base(tracee, real)
            mem = os.open(f"/proc/{tracee}/mem", os.O_RDWR)
            text = bytearray(os.pread(mem, hi - lo, base + lo))
            for addr in table["addrs"]:
                original[addr] = bytes(text[addr - lo : addr - lo + 1])
                text[addr - lo] = INT3
            os.pwrite(mem, bytes(text), base + lo)
            sig = 0
        elif event == PTRACE_EVENT_STOP:
            ptrace(lib, PTRACE_LISTEN, pid)
            continue
        elif event:
            sig = 0
        elif sig == signal.SIGTRAP and base is not None:
            rip = ptrace(lib, PTRACE_PEEKUSER, pid, RIP) & 0xFFFFFFFFFFFFFFFF
            addr = rip - 1 - base
            if addr in original:
                # First hit: put the byte back and re-run the instruction.
                # Another thread may have trapped on it too; both rewind.
                if addr not in hits:
                    os.pwrite(mem, original[addr], base + addr)
                    hits.add(addr)
                ptrace(lib, PTRACE_POKEUSER, pid, RIP, rip - 1)
                sig = 0
        ptrace(lib, PTRACE_CONT, pid, 0, sig)
    path = os.path.join(outdir, f"{tracee}.hits")
    with open(path + ".tmp", "w") as f:
        f.write("".join(f"{a}\n" for a in sorted(hits)))
    os.rename(path + ".tmp", path)


def load_base(pid, real):
    """Where the kernel mapped `real` in `pid`: its offset-0 mapping."""
    want = os.path.realpath(real)
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) >= 6 and fields[5] == want and int(fields[2], 16) == 0:
                return int(fields[0].split("-")[0], 16)
    raise RuntimeError(f"{want} is not mapped in {pid}")


# ---- driver ---------------------------------------------------------------


def build(target, bench_target):
    lock = os.path.join(ROOT, "benchmark", "Cargo.lock")
    with open(lock, "rb") as f:
        saved = f.read()
    try:
        cargo = ["cargo", "build", "--release", "--offline"]
        subprocess.run(cargo + ["-p", "repl-runtime", "--bin", "repld"], cwd=ROOT, check=True)
        subprocess.run(cargo + ["--manifest-path", "benchmark/Cargo.toml"], cwd=ROOT, check=True)
    finally:
        with open(lock, "wb") as f:
            f.write(saved)
    return os.path.join(target, "release", "repld"), os.path.join(bench_target, "release", "replbench")


def ifunc_siblings(executed, sizes):
    """Every not-executed variant of an IFUNC family one of whose
    variants ran."""
    def family(name):
        for tag in ISA_TAGS:
            head, sep, _ = name.partition("_" + tag)
            if sep and head.startswith("__") and len(head) > 2:
                return head
        return None

    ran = {family(n) for n in executed} - {None}
    return sorted(n for n in sizes if n not in executed and family(n) in ran)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target"))
    bench_target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "benchmark", "target"))
    repld, replbench = build(os.path.abspath(target), os.path.abspath(bench_target))
    segment, by_addr, sizes = symbols(repld)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    with tempfile.TemporaryDirectory(prefix="hot_text.") as outdir:
        with open(os.path.join(outdir, "symbols.json"), "w") as f:
            json.dump({"segment": segment, "addrs": sorted(by_addr)}, f)
        env = dict(os.environ, REPLD_BIN=os.path.abspath(__file__), HOT_TEXT_REPLD=repld, HOT_TEXT_DIR=outdir)
        for workload in workloads:
            for traced in ("0", "1"):
                cmd = [replbench, "--workload", workload, "--seed", str(SEED)]
                cmd += ["--seconds", str(SECONDS), "--trace", traced]
                print(f"hot_text: {' '.join(cmd[1:])}", file=sys.stderr)
                done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    # Traced sites are slow to their first hits, and an open-loop
                    # run can miss its offered rate; the sites ran all the same.
                    print(f"hot_text: replbench exited {done.returncode}; its traces are kept", file=sys.stderr)
        runs = wait_for_tracers(outdir)
        hit = set()
        for run in runs:
            with open(os.path.join(outdir, f"{run}.hits")) as f:
                hit.update(int(line) for line in f)

    executed = {name for addr in hit for name in by_addr[addr]}
    siblings = ifunc_siblings(executed, sizes)
    with open(ORDER, "w") as f:
        f.write(
            "# The functions a `repld` site executes, placed first in its .text by\n"
            "# the release link (crates/runtime/build.rs). Generated by\n"
            "# `python3 tools/hot_text.py`: the union of first hits over every\n"
            "# BENCHMARK.json workload at --trace 0 and 1, sorted by name.\n"
        )
        f.write("".join(f"{n}\n" for n in sorted(executed)))
        f.write("# IFUNC siblings of the executed string functions.\n")
        f.write("".join(f"{n}\n" for n in siblings))
    kb = lambda names: sum(sizes[n] for n in names) / 1024
    print(
        f"hot_text: {len(runs)} site processes; {len(hit)} functions executed "
        f"({len(executed)} names, {sum(sizes[by_addr[a][0]] for a in hit) / 1024:.0f} kB), "
        f"{len(siblings)} IFUNC siblings ({kb(siblings):.0f} kB) -> {os.path.relpath(ORDER, ROOT)}",
        file=sys.stderr,
    )


def wait_for_tracers(outdir, timeout_s=30):
    """The pids of every traced site, once each tracer has written its
    hits (a tracer finishes just after its site exits)."""
    deadline = time.monotonic() + timeout_s
    while True:
        names = os.listdir(outdir)
        runs = sorted(n[: -len(".run")] for n in names if n.endswith(".run"))
        if all(f"{r}.hits" in names for r in runs):
            return runs
        if time.monotonic() > deadline:
            sys.exit(f"hot_text: {sum(f'{r}.hits' not in names for r in runs)} tracers wrote no hits")
        time.sleep(0.1)


if __name__ == "__main__":
    if "HOT_TEXT_REPLD" in os.environ:
        wrapper(sys.argv[1:])
    else:
        main()
