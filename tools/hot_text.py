#!/usr/bin/env python3
"""Regenerate `crates/runtime/repld.order`: the functions a `repld` site
executes, which the release link places first in `.text`, and the named
read-only data it reads, placed first in `.rodata`
(`crates/runtime/build.rs`, `crates/runtime/repld.ld`; DESIGN.md §9.5,
"hot text first").

    python3 tools/hot_text.py

It builds release `replbench` (and puts `benchmark/Cargo.lock` back, as
`tools/ci.sh` does) and a probe `repld` under `target/hot_text`: the
release link with every `.rodata` input section on a page of its own,
so a page read names the section read. Then it runs every workload of
BENCHMARK.json for 2 s with `--trace 0` and `--trace 1`. Each `repld`
the harness starts runs under a ptrace tracer that

* sets a one-shot `int3` on every function of its `.text` and records
  the ones hit;
* makes every page of its read-only segment a mapping of its own
  (`mprotect`, alternating `PROT_READ` and `PROT_READ|PROT_WRITE`, so
  neighbours do not merge) and drops them all (`madvise(MADV_DONTNEED)`),
  both injected as system calls before the first instruction runs. A
  fault then maps only the page it touched, not its 64 kB fault-around
  window, and the pages resident when the site exits are the ones it
  read.

The file is the union of first hits over every site process, sorted by
name, then every IFUNC sibling of an executed string function
(`__memmove_evex_…` beside `__memmove_avx_…`), so a CPU that resolves a
different variant still finds it next to the hot region. Under `# data`
follow the named symbols of the `.rodata` input sections a site read
(the probe's link map names them), smallest section first. Anonymous
constants, merged strings, literal pools and jump tables have no names;
`repld.ld` places them first wholesale, and the tool lists any other
section read without a name, for `repld.ld` to name. The same traces
give the same file.

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
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORDER = os.path.join(ROOT, "crates", "runtime", "repld.order")
# Every run's `replbench --seed` and `--seconds`. Ten runs start 195
# site processes; two tool runs on one tree differ by a name or none.
SEED, SECONDS = 1, 2

PTRACE_PEEKUSER = 3
PTRACE_POKEUSER = 6
PTRACE_CONT = 7
PTRACE_SINGLESTEP = 9
PTRACE_GETREGS = 12
PTRACE_SETREGS = 13
PTRACE_SEIZE = 0x4206
PTRACE_LISTEN = 0x4208
PTRACE_O_TRACECLONE = 0x08
PTRACE_O_TRACEEXEC = 0x10
PTRACE_O_TRACEEXIT = 0x40
PTRACE_O_EXITKILL = 0x100000
PTRACE_EVENT_EXEC = 4
PTRACE_EVENT_EXIT = 6
PTRACE_EVENT_STOP = 128
PR_SET_PTRACER = 0x59616D61
WALL = 0x40000000
RIP = 16 * 8  # offsetof(struct user_regs_struct, rip)
INT3 = 0xCC
SYSCALL = b"\x0f\x05"
SYS_MPROTECT, SYS_MADVISE = 10, 28
PROT_READ, PROT_WRITE = 1, 2
MADV_DONTNEED = 4
PAGE = 4096


class Regs(ctypes.Structure):
    """`struct user_regs_struct` (x86_64)."""

    _fields_ = [
        (name, ctypes.c_ulonglong)
        for name in "r15 r14 r13 r12 rbp rbx r11 r10 r9 r8 rax rcx rdx rsi rdi orig_rax "
        "rip cs eflags rsp ss fs_base gs_base ds es fs gs".split()
    ]

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


def load_segments(path):
    """`(flags, vaddr, memsz)` of every PT_LOAD segment, link-time
    addresses."""
    with open(path, "rb") as f:
        ehdr = f.read(64)
        if ehdr[:4] != b"\x7fELF" or ehdr[4] != 2:
            sys.exit(f"hot_text: {path} is not a 64-bit ELF file")
        (phoff,) = struct.unpack_from("<Q", ehdr, 32)
        phentsize, phnum = struct.unpack_from("<HH", ehdr, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    loads = []
    for i in range(phnum):
        p_type, p_flags, _, vaddr, _, _, memsz, _ = struct.unpack_from("<IIQQQQQQ", table, i * phentsize)
        if p_type == 1:
            loads.append((p_flags, vaddr, memsz))
    return loads


def exec_segment(path):
    """`(lo, hi)` of the executable PT_LOAD segment."""
    for flags, vaddr, memsz in load_segments(path):
        if flags & 1:
            return vaddr, vaddr + memsz
    sys.exit(f"hot_text: {path} has no executable segment")


def read_only_segment(path):
    """`(lo, hi)` of the read-only PT_LOAD segment at the file's start,
    widened to whole pages: the mapping a site holds `r--p`."""
    for flags, vaddr, memsz in load_segments(path):
        if flags == 4 and vaddr == 0:
            return 0, -(-memsz // PAGE) * PAGE
    sys.exit(f"hot_text: {path} has no read-only segment at offset 0")


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
        except BaseException:
            traceback.print_exc()
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
    rlo, rhi = table["rodata"]
    lib = libc()
    os.read(go_r, 1)
    options = PTRACE_O_TRACEEXEC | PTRACE_O_TRACECLONE | PTRACE_O_TRACEEXIT | PTRACE_O_EXITKILL
    ptrace(lib, PTRACE_SEIZE, tracee, 0, options)
    open(os.path.join(outdir, f"{tracee}.run"), "w").close()
    os.write(ready_w, b"r")
    base, mem, original, hits, pages = None, None, {}, set(), set()
    while True:
        pid, status = os.waitpid(-1, WALL)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            if pid == tracee:
                break
            continue
        sig, event = os.WSTOPSIG(status), status >> 16
        if event == PTRACE_EVENT_EXEC:
            # The new image is mapped and has run nothing: split its
            # read-only segment into pages, then arm every function with
            # one write of the whole text segment.
            base = load_base(tracee, real)
            mem = os.open(f"/proc/{tracee}/mem", os.O_RDWR)
            split_pages(lib, tracee, mem, base + rlo, base + rhi)
            text = bytearray(os.pread(mem, hi - lo, base + lo))
            for addr in table["addrs"]:
                original[addr] = bytes(text[addr - lo : addr - lo + 1])
                text[addr - lo] = INT3
            os.pwrite(mem, bytes(text), base + lo)
            sig = 0
        elif event == PTRACE_EVENT_EXIT:
            # The address space outlives the stop: read what is resident.
            if base is not None:
                pages |= resident_pages(tracee, real, base + rlo, base + rhi)
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
    with open(os.path.join(outdir, f"{tracee}.pages"), "w") as f:
        f.write("".join(f"{(p - base - rlo) // PAGE}\n" for p in sorted(pages)))
    path = os.path.join(outdir, f"{tracee}.hits")
    with open(path + ".tmp", "w") as f:
        f.write("".join(f"{a}\n" for a in sorted(hits)))
    os.rename(path + ".tmp", path)


def split_pages(lib, pid, mem, lo, hi):
    """Make each page of `[lo, hi)` a mapping of its own and drop it, by
    running `mprotect` and `madvise` in `pid`, which is stopped in
    `execve` before its first instruction: a `syscall` written over the
    next instruction, single-stepped once a call, then the bytes and
    registers put back."""

    def step():
        ptrace(lib, PTRACE_SINGLESTEP, pid)
        _, status = os.waitpid(pid, WALL)
        if not os.WIFSTOPPED(status) or os.WSTOPSIG(status) != signal.SIGTRAP:
            raise RuntimeError(f"single step in {pid}: status {status:#x}")

    # The first step only finishes `execve` (its return value would
    # overwrite an injected call's number); x86 reports it at the
    # system call's exit, before any instruction runs.
    step()
    saved = Regs()
    ptrace(lib, PTRACE_GETREGS, pid, 0, ctypes.addressof(saved))
    at = saved.rip
    code = os.pread(mem, len(SYSCALL), at)
    os.pwrite(mem, SYSCALL, at)

    def syscall(nr, *args):
        regs = Regs.from_buffer_copy(saved)
        regs.rax, regs.orig_rax, regs.rip = nr, 2**64 - 1, at
        regs.rdi, regs.rsi, regs.rdx = args
        ptrace(lib, PTRACE_SETREGS, pid, 0, ctypes.addressof(regs))
        step()
        ptrace(lib, PTRACE_GETREGS, pid, 0, ctypes.addressof(regs))
        if regs.rax != 0:
            raise OSError(2**64 - regs.rax, f"injected syscall {nr} in {pid}")

    for page in range(lo + PAGE, hi, 2 * PAGE):
        syscall(SYS_MPROTECT, page, PAGE, PROT_READ | PROT_WRITE)
    syscall(SYS_MADVISE, lo, hi - lo, MADV_DONTNEED)
    os.pwrite(mem, code, at)
    ptrace(lib, PTRACE_SETREGS, pid, 0, ctypes.addressof(saved))


def resident_pages(pid, real, lo, hi):
    """The pages of `real`'s mappings inside `[lo, hi)` that `pid` holds
    resident, from `/proc/<pid>/smaps`."""
    want, pages, start = os.path.realpath(real), set(), None
    with open(f"/proc/{pid}/smaps") as smaps:
        for line in smaps:
            fields = line.split()
            if not fields[0].endswith(":"):  # a mapping's first line
                a, end = (int(x, 16) for x in fields[0].split("-"))
                start = a if len(fields) == 6 and fields[5] == want and lo <= a and end <= hi else None
            elif start is not None and fields[0] == "Rss:" and int(fields[1]) > 0:
                if end - start != PAGE:
                    raise RuntimeError(f"{pid}: {end - start} bytes at {start:#x} were not split")
                pages.add(start)
    return pages


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


def build_replbench(bench_target):
    lock = os.path.join(ROOT, "benchmark", "Cargo.lock")
    with open(lock, "rb") as f:
        saved = f.read()
    try:
        cargo = ["cargo", "build", "--release", "--offline", "--manifest-path", "benchmark/Cargo.toml"]
        subprocess.run(cargo, cwd=ROOT, check=True)
    finally:
        with open(lock, "wb") as f:
            f.write(saved)
    return os.path.join(bench_target, "release", "replbench")


def link_repld(target, link_map, probe=None):
    """Release `repld`, linked into its own target directory (so the
    workspace's `repld` is never the probe) with a link map. A `probe`
    script goes in front of `repld.ld` for the link, so its patterns
    claim their sections first. New arguments make cargo relink."""
    script = os.path.join(ROOT, "crates", "runtime", "repld.ld")
    with open(script) as f:
        saved = f.read()
    cargo = ["cargo", "rustc", "--release", "--offline", "-p", "repl-runtime", "--bin", "repld"]
    cargo += ["--", "-C", f"link-arg=-Wl,-Map={link_map},--no-demangle"]
    try:
        if probe:
            with open(script, "w") as f:
                f.write(probe + saved)
        subprocess.run(cargo, cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target), check=True)
    finally:
        with open(script, "w") as f:
            f.write(saved)
    return os.path.join(target, "release", "repld")


def probe_script(sections):
    """An INSERT script that starts every `.rodata` input section on a
    page of its own, so a resident page names the section read."""
    patterns = []
    for _, _, out, desc, _ in sections:
        if out != ".rodata":
            continue
        obj, _, sec = desc.rpartition(":(")
        archive, _, member = obj.partition("(")
        file = "*" if obj == "<internal>" else f"*{archive}:{member[:-1]}" if member else f"*{archive}"
        patterns.append(f"    . = ALIGN({PAGE});\n    {file}({sec[:-1]})\n")
    return (
        "SECTIONS\n{\n  .rodata.probe : {\n" + "".join(patterns)
        + f"    . = ALIGN({PAGE});\n  }}\n}}\nINSERT AFTER .relr.dyn;\n\n"
    )


def input_sections(link_map, lo, hi):
    """The input sections rust-lld's `-Map` output places in `[lo, hi)`:
    `(addr, size, output section, input section, [(addr, symbol)])`."""
    sections, out, out_addr = [], None, 0
    with open(link_map) as f:
        next(f)  # the column titles
        for line in f:
            # `VMA LMA Size Align` in 49 columns, then the name indented
            # by nesting: output section, input section, symbol.
            addr, _, size, _ = (int(x, 16) for x in line[:49].split())
            name = line[49:].rstrip("\n")
            depth = (len(name) - len(name.lstrip(" "))) // 8
            if depth == 0:
                out, out_addr = name, addr
            # Sections not loaded (debug info, symbols) sit at address 0.
            elif depth == 1 and out_addr > 0 and lo <= addr < hi and size > 0 and ":(" in name:
                obj, _, sec = name.strip().rpartition(":(")
                sections.append((addr, size, out, f"{os.path.basename(obj)}:({sec}", []))
            elif depth == 2 and sections and sections[-1][0] <= addr < sections[-1][0] + sections[-1][1]:
                sections[-1][4].append((addr, name.strip()))
    return sections


def on_pages(addr, size, pages):
    return any(p * PAGE < addr + size and addr < (p + 1) * PAGE for p in pages)


def hot_data(sections, touched):
    """From the probe link: the named symbols of every `.rodata` input
    section a site read, smallest section first, so a large one
    (C-ctype.o's 56 kB, 50 kB of it transliteration tables nothing reads)
    ends the hot region instead of splitting it; within a section, the
    symbols on touched pages. Also the touched sections without a name,
    which only `repld.ld` can place."""
    named, unnamed = [], []
    for addr, size, out, desc, syms in sections:
        if out != ".rodata.probe" or not on_pages(addr, size, touched):
            continue
        if not syms:
            unnamed.append(desc)
            continue
        ends = [a for a, _ in syms[1:]] + [addr + size]
        hot = [n for (a, n), end in zip(syms, ends) if on_pages(a, end - a, touched)] or [syms[0][1]]
        named.append((size, desc, hot))
    names = [n for _, _, hot in sorted(named) for n in hot]
    # A local name (`CSWTCH.97`) may be several objects'; the link orders
    # them all by its first line.
    return list(dict.fromkeys(names)), unnamed


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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    with tempfile.TemporaryDirectory(prefix="hot_text.") as outdir:
        # Trace a probe `repld`: the release link with every `.rodata`
        # input section on pages of its own. Its text is the release
        # text; only the read-only data moves.
        probe_target = os.path.join(os.path.abspath(target), "hot_text")
        release_map, probe_map = os.path.join(outdir, "release.map"), os.path.join(outdir, "probe.map")
        repld = link_repld(probe_target, release_map)
        probe = probe_script(input_sections(release_map, *read_only_segment(repld)))
        repld = link_repld(probe_target, probe_map, probe)
        replbench = build_replbench(os.path.abspath(bench_target))
        segment, by_addr, sizes = symbols(repld)
        rodata = read_only_segment(repld)
        sections = input_sections(probe_map, *rodata)
        with open(os.path.join(outdir, "symbols.json"), "w") as f:
            json.dump({"segment": segment, "rodata": rodata, "addrs": sorted(by_addr)}, f)
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
        hit, touched = set(), set()
        for run in runs:
            with open(os.path.join(outdir, f"{run}.hits")) as f:
                hit.update(int(line) for line in f)
            with open(os.path.join(outdir, f"{run}.pages")) as f:
                touched.update(int(line) for line in f)

    executed = {name for addr in hit for name in by_addr[addr]}
    siblings = ifunc_siblings(executed, sizes)
    data, unnamed = hot_data(sections, touched)
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
        f.write(
            "# data: the named read-only data a site reads, placed first in .rodata,\n"
            "# after what crates/runtime/repld.ld groups; smallest section first.\n"
        )
        f.write("".join(f"{n}\n" for n in data))
    kb = lambda names: sum(sizes[n] for n in names) / 1024
    print(
        f"hot_text: {len(runs)} site processes; {len(hit)} functions executed "
        f"({len(executed)} names, {sum(sizes[by_addr[a][0]] for a in hit) / 1024:.0f} kB), "
        f"{len(siblings)} IFUNC siblings ({kb(siblings):.0f} kB); "
        f"{len(data)} data names -> {os.path.relpath(ORDER, ROOT)}",
        file=sys.stderr,
    )
    for out in dict.fromkeys(out for _, _, out, _, _ in sections):
        parts = [(a, n, d) for a, n, o, d, _ in sections if o == out and on_pages(a, n, touched)]
        if out != ".rodata.probe" and parts:
            pages = sorted(p for p in touched if any(on_pages(a, n, [p]) for a, n, _ in parts))
            merged = " ".join(d.partition(":(")[2][:-1] for _, _, d in parts if d.startswith("<internal>"))
            print(f"hot_text: read {out}: pages {pages}; merged sections {merged or '-'}", file=sys.stderr)
    for addr, size, out, desc, _ in sections:
        if out == ".rodata.probe" and size > PAGE and on_pages(addr, size, touched):
            pages = sorted(p - addr // PAGE for p in touched if on_pages(addr, size, [p]))
            print(f"hot_text: read {desc} ({size} B): its pages {pages}", file=sys.stderr)
    for desc in unnamed:
        print(f"hot_text: read, no name to order by: {desc}", file=sys.stderr)


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
