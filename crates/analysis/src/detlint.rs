//! The determinism lint: a line-oriented source scanner.
//!
//! Simulation results must be a pure function of their seeds; the paper's
//! experiments are only reproducible if no wall-clock time, ambient
//! randomness, or hash-order iteration leaks into the simulator. The
//! `replint` binary runs these rules over the deterministic crates, and a
//! separate panic-freedom rule over the long-running runtime crates:
//!
//! | code  | rejects |
//! |-------|---------|
//! | RL000 | (warning) a `replint: allow(…)` comment that matches no diagnostic |
//! | RL001 | `SystemTime::now` |
//! | RL002 | `Instant::now` |
//! | RL003 | `thread_rng` / `rand::rng()` (ambient, unseeded RNGs) |
//! | RL004 | iteration over a `HashMap`/`HashSet` binding (unordered) |
//! | RL005 | entropy-seeded RNG construction (`from_entropy`, `from_os_rng`, `OsRng`, `getrandom`) |
//! | RL006 | blocking network I/O (`std::net`, `TcpStream`, `TcpListener`, `UdpSocket`) |
//! | RL007 | any I/O, threading, or clock import inside `crates/protocol` |
//! | RL008 | `unwrap`/`expect`/`panic!`/`unreachable!` in non-test runtime code |
//! | RL009 | blocking socket call patterns inside the epoll reactor |
//! | RL010 | bare `thread::sleep` or hardcoded retry-duration consts in `crates/runtime` outside the policy module |
//! | RL011 | lock-manager access on the MVCC snapshot-read path (storage `mvcc.rs`/`snapshot.rs`/`cells.rs`, and the `read_snapshot` body in `store.rs`) |
//! | RL012 | raw `Transport::try_send` calls in `crates/runtime` outside `Net::flush` in `transport.rs` (bytes on a peer socket that no link cursor accounts for) |
//!
//! Files are classified by path ([`FileClass`]): paths under
//! `crates/runtime` or `crates/net` get the panic-freedom rule
//! RL008 (they legitimately own sockets, clocks and threads — a
//! long-running site process just must not die on a stray `unwrap`),
//! and `crates/runtime` sources outside `src/policy.rs` additionally
//! get the timing-policy rule RL010; every other path gets the
//! determinism rules, and paths under `crates/protocol` additionally
//! get the sans-I/O rule RL007.
//!
//! RL009 guards the single-threaded readiness loop: one blocking
//! `accept`/`read`/`write` anywhere in `runtime/src/reactor.rs` parks
//! the whole site — every peer link, every client — so raw socket
//! calls are rejected there by pattern. The three sanctioned
//! nonblocking helpers at the bottom of the module carry
//! `// replint: allow(RL009)` comments; everything else must funnel
//! through them — link frames too, which leave from the link log
//! through the `write_some` sink the reactor hands `Net::flush`, so the
//! one raw peer write is the audited helper's.
//!
//! RL006 keeps real sockets out of the deterministic layers: the
//! simulator models the network in virtual time, so any code under the
//! deterministic crates that touches `std::net` both blocks on real I/O
//! and injects wall-clock timing into results. Socket code belongs in
//! `repl-net`/`repl-runtime`.
//!
//! RL007 enforces the sans-I/O contract of `repl-protocol`: the crate is
//! the single propagation state machine shared by the simulator and the
//! live runtime, and it stays shareable only while it owns no clocks,
//! threads, channels, or sockets. Files whose path lies under
//! `crates/protocol` may not mention `std::thread`, `std::time`,
//! `std::net`, or `crossbeam` — drivers own all of those.
//!
//! RL004 is a heuristic: the scanner collects names declared with a
//! `HashMap<…>`/`HashSet<…>` type ascription in the same file and flags
//! iteration calls (`.iter()`, `.keys()`, `.values()`, `.drain()`,
//! `.into_keys()`, `.into_values()`, …) on those names — directly,
//! through a chain of intermediate calls (`m.lock().keys()`), on a
//! continuation line of a builder-style chain, and in `for … in &name`
//! loops. Comment-only lines are never flagged.
//!
//! RL008 skips `#[cfg(test)]` regions (tracked by brace depth): tests
//! may unwrap freely, the site loop may not.
//!
//! RL010 keeps retry timing in one place: every sleep and every
//! retry/timeout/backoff duration in `crates/runtime` must route
//! through `runtime/src/policy.rs` (`policy::pace`, `RetryPolicy`),
//! where the knobs are configurable and jittered, instead of being
//! hardcoded at the call site. The policy module itself is the one
//! sanctioned home for the real `thread::sleep`, and `#[cfg(test)]`
//! regions are skipped the same way RL008 skips them.
//!
//! RL011 pins the MVCC subsystem's one structural invariant: snapshot
//! reads never touch the lock manager, so a read-only transaction can
//! neither block behind the write stream nor deadlock against it. The
//! rule is path-gated inside the determinism class — a snapshot read is
//! one lookup in the dense cell array and, past a newer commit, one
//! side-chain lookup, so `cells.rs`, `mvcc.rs` and `snapshot.rs` under
//! `crates/storage` may not name `LockManager` (or reach it through
//! `self.locks`) anywhere, and in `store.rs` the same ban covers the
//! body of `fn read_snapshot`, tracked by brace depth. The rest of
//! `store.rs` legitimately owns the 2PL path; `#[cfg(test)]` regions are
//! skipped the same way RL008 skips them.
//!
//! RL012 pins the propagation send funnel: every frame leaving a site
//! is encoded into its link log by `Net::send` (which assigns the
//! per-link sequence number), and only `Net::flush` in
//! `runtime/src/transport.rs` hands the wire bytes to write: the log
//! from its send cursor, moving the cursor past what the socket took. A
//! raw `Transport::try_send` anywhere else — elsewhere in
//! `transport.rs` and in the fault-injection wire `nemesis.rs`
//! included — would put bytes on a peer socket that no cursor accounts
//! for: frames with no replay entry (lost on the first drop), out of
//! sequence (gap-dropped by the receiver's dedup discipline), or inside
//! another frame. The body of `fn flush` in `transport.rs` is the one
//! sanctioned home, tracked by brace depth; a call anywhere else needs
//! a `// replint: allow(RL012)` justification (none does today).
//! `#[cfg(test)]` regions are skipped the same way RL008 skips them.
//!
//! Any rule is silenced for one finding with a suppression comment on
//! the same line or the line above: `// replint: allow(RL004)` (several
//! codes comma-separated; the historical spelling `allow(hash-iter)` is
//! an alias for RL004). Suppressions that match no diagnostic are
//! themselves reported as RL000 warnings so stale escapes get cleaned
//! up instead of silently rotting.

use crate::diag::{Diagnostic, Witness};

const ALLOW_MARK: &str = "replint: allow(";

/// Which rule set a file gets, decided by its path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Determinism rules RL001–RL006; `sans_io` adds RL007.
    Determinism {
        /// The file lies inside the sans-I/O protocol core.
        sans_io: bool,
    },
    /// Panic-freedom rule RL008 (long-running runtime crates);
    /// `reactor` adds the no-blocking-I/O rule RL009.
    PanicFree {
        /// The file is the epoll reactor's readiness loop.
        reactor: bool,
    },
    /// No rules (integration tests of the runtime crates: test code may
    /// unwrap freely, and driver tests legitimately use clocks).
    Exempt,
}

/// Classify a path into the rule set it must satisfy.
pub fn classify(path_label: &str) -> FileClass {
    if path_label.contains("crates/runtime") || path_label.contains("crates/net") {
        if path_label.contains("/tests/") || path_label.contains("\\tests\\") {
            FileClass::Exempt
        } else {
            let reactor = path_label.contains("runtime/src/reactor.rs")
                || path_label.contains("runtime\\src\\reactor.rs");
            FileClass::PanicFree { reactor }
        }
    } else {
        FileClass::Determinism { sans_io: path_label.contains("crates/protocol") }
    }
}

/// One `replint: allow(…)` comment.
struct Suppression {
    /// 1-based line the comment sits on; it covers this line and the next.
    line: u32,
    /// Canonical codes it names (aliases resolved).
    codes: Vec<String>,
    used: bool,
}

fn canonical_code(raw: &str) -> String {
    let raw = raw.trim();
    if raw.eq_ignore_ascii_case("hash-iter") {
        "RL004".to_owned()
    } else {
        raw.to_ascii_uppercase()
    }
}

fn collect_suppressions(src: &str) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        if let Some(pos) = raw.find(ALLOW_MARK) {
            let rest = &raw[pos + ALLOW_MARK.len()..];
            if let Some(end) = rest.find(')') {
                let codes: Vec<String> =
                    rest[..end].split(',').map(canonical_code).filter(|c| !c.is_empty()).collect();
                if !codes.is_empty() {
                    out.push(Suppression { line: idx as u32 + 1, codes, used: false });
                }
            }
        }
    }
    out
}

/// RL008's `#[cfg(test)]` region tracker.
enum TestRegion {
    Outside,
    /// Saw the attribute, waiting for the item's opening brace.
    AwaitBrace,
    /// Inside the item, at this brace depth.
    Inside(i32),
}

/// Scan one source file; `path_label` selects the rule set
/// ([`classify`]) and is used verbatim in witnesses.
pub fn scan_file(path_label: &str, src: &str) -> Vec<Diagnostic> {
    let class = classify(path_label);
    let mut suppressions = collect_suppressions(src);
    let mut diags = Vec::new();
    {
        // Emit a finding unless a suppression on the same line or the
        // line above names its code.
        let mut emit = |diags: &mut Vec<Diagnostic>,
                        code: &'static str,
                        message: &str,
                        lineno: u32,
                        text: &str| {
            for s in suppressions.iter_mut() {
                if (s.line == lineno || s.line + 1 == lineno) && s.codes.iter().any(|c| c == code) {
                    s.used = true;
                    return;
                }
            }
            diags.push(source_diag(code, message, path_label, lineno, text));
        };
        match class {
            FileClass::Determinism { sans_io } => {
                scan_determinism(path_label, src, sans_io, &mut |c, m, l, t| {
                    emit(&mut diags, c, m, l, t)
                });
                scan_mvcc_lock_free(path_label, src, &mut |c, m, l, t| {
                    emit(&mut diags, c, m, l, t)
                });
            }
            FileClass::PanicFree { reactor } => {
                scan_panic_free(src, &mut |c, m, l, t| emit(&mut diags, c, m, l, t));
                if reactor {
                    scan_reactor_nonblocking(src, &mut |c, m, l, t| emit(&mut diags, c, m, l, t));
                }
                let in_runtime =
                    path_label.contains("crates/runtime") || path_label.contains("crates\\runtime");
                let is_policy = path_label.contains("runtime/src/policy.rs")
                    || path_label.contains("runtime\\src\\policy.rs");
                if in_runtime && !is_policy {
                    scan_timing(src, &mut |c, m, l, t| emit(&mut diags, c, m, l, t));
                }
                if in_runtime {
                    let funnel = path_label.replace('\\', "/").contains("runtime/src/transport.rs");
                    scan_raw_transport_send(src, funnel, &mut |c, m, l, t| {
                        emit(&mut diags, c, m, l, t)
                    });
                }
            }
            FileClass::Exempt => return Vec::new(),
        }
    }
    for s in &suppressions {
        if !s.used {
            diags.push(Diagnostic::warning(
                "RL000",
                format!(
                    "{path_label}:{}: suppression `allow({})` matches no diagnostic; remove it",
                    s.line,
                    s.codes.join(",")
                ),
                Witness::Source {
                    file: path_label.to_owned(),
                    line: s.line,
                    text: src.lines().nth(s.line as usize - 1).unwrap_or("").trim().to_owned(),
                },
            ));
        }
    }
    diags.sort_by_key(|d| match &d.witness {
        Witness::Source { line, .. } => *line,
        _ => 0,
    });
    diags
}

fn scan_determinism(
    _path_label: &str,
    src: &str,
    sans_io: bool,
    emit: &mut dyn FnMut(&'static str, &str, u32, &str),
) {
    let hash_names = collect_hash_bindings(src);
    // A builder-style chain left hanging at end-of-line, rooted (possibly
    // several continuation lines back) at a tracked hash binding.
    let mut open_chain: Option<String> = None;

    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx as u32 + 1;
        if line.starts_with("//") {
            continue;
        }
        let code_part = strip_line_comment(raw);

        if code_part.contains("SystemTime::now") {
            emit(
                "RL001",
                "wall-clock read: SystemTime::now is not a function of the seed",
                lineno,
                line,
            );
        }
        if code_part.contains("Instant::now") {
            emit(
                "RL002",
                "wall-clock read: Instant::now is not a function of the seed",
                lineno,
                line,
            );
        }
        if code_part.contains("thread_rng") || code_part.contains("rand::rng()") {
            emit("RL003", "ambient RNG: use an explicitly seeded generator", lineno, line);
        }
        if code_part.contains("from_entropy")
            || code_part.contains("from_os_rng")
            || code_part.contains("OsRng")
            || code_part.contains("getrandom")
        {
            emit(
                "RL005",
                "entropy-seeded RNG: OS entropy varies across runs; derive the seed \
                 from the experiment parameters instead",
                lineno,
                line,
            );
        }
        for pat in ["std::net", "TcpStream", "TcpListener", "UdpSocket"] {
            if code_part.contains(pat) {
                emit(
                    "RL006",
                    &format!(
                        "blocking network I/O ({pat}): real sockets have no place in \
                         the deterministic layers; put socket code in repl-net or \
                         repl-runtime"
                    ),
                    lineno,
                    line,
                );
                break;
            }
        }
        if sans_io {
            for pat in ["std::thread", "std::time", "std::net", "crossbeam"] {
                if code_part.contains(pat) {
                    emit(
                        "RL007",
                        &format!(
                            "{pat} inside the sans-I/O protocol core: repl-protocol \
                             is shared by the simulator and the live runtime, so \
                             clocks, threads, channels, and sockets belong to the \
                             drivers, never the state machine"
                        ),
                        lineno,
                        line,
                    );
                    break;
                }
            }
        }
        let trimmed_code = code_part.trim();
        let continues_chain = trimmed_code.starts_with('.');
        let mut flagged = false;
        if continues_chain {
            if let Some(name) = &open_chain {
                if starts_with_iteration_method(trimmed_code) {
                    let name = name.clone();
                    emit_hash_iter(emit, &name, lineno, line);
                    flagged = true;
                }
            }
        }
        if !flagged {
            for name in &hash_names {
                if iterates_hash_binding(code_part, name) {
                    emit_hash_iter(emit, name, lineno, line);
                    break;
                }
            }
        }
        // Track chain roots for continuation lines: a line ending in a
        // tracked binding opens a chain; a continuation line keeps it
        // open; anything else closes it.
        let ends_open = trimmed_code
            .ends_with(|c: char| c.is_alphanumeric() || c == '_' || c == ')' || c == '?');
        if let Some(name) = hash_names.iter().find(|n| chain_root_ends_with(trimmed_code, n)) {
            open_chain = Some(name.clone());
        } else if !(continues_chain && ends_open && open_chain.is_some()) {
            open_chain = None;
        }
    }
}

fn emit_hash_iter(
    emit: &mut dyn FnMut(&'static str, &str, u32, &str),
    name: &str,
    lineno: u32,
    line: &str,
) {
    emit(
        "RL004",
        &format!(
            "iteration over hash-ordered `{name}`: order varies across \
             runs; use BTreeMap/BTreeSet, sort first, or annotate \
             `// replint: allow(RL004)`"
        ),
        lineno,
        line,
    );
}

fn scan_panic_free(src: &str, emit: &mut dyn FnMut(&'static str, &str, u32, &str)) {
    let mut region = TestRegion::Outside;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx as u32 + 1;
        if line.starts_with("//") {
            continue;
        }
        let code_part = strip_line_comment(raw);
        let (opens, closes) = brace_count(code_part);
        match region {
            TestRegion::Outside => {
                if code_part.contains("#[cfg(test)]") {
                    region = TestRegion::AwaitBrace;
                    continue;
                }
            }
            TestRegion::AwaitBrace => {
                if opens > 0 {
                    let depth = opens - closes;
                    region =
                        if depth > 0 { TestRegion::Inside(depth) } else { TestRegion::Outside };
                }
                continue;
            }
            TestRegion::Inside(depth) => {
                let depth = depth + opens - closes;
                region = if depth > 0 { TestRegion::Inside(depth) } else { TestRegion::Outside };
                continue;
            }
        }
        for pat in [".unwrap()", ".expect(", "panic!(", "unreachable!("] {
            if code_part.contains(pat) {
                emit(
                    "RL008",
                    &format!(
                        "panicking call ({pat}) in long-running runtime code: a site \
                         process must survive bad input; handle the error or justify \
                         with `// replint: allow(RL008)`"
                    ),
                    lineno,
                    line,
                );
                break;
            }
        }
    }
}

/// Raw socket call patterns that would park the readiness loop if the
/// fd were (or ever became) blocking. The reactor funnels all raw I/O
/// through three nonblocking helpers, each carrying an
/// `// replint: allow(RL009)` justification; any other match is a bug.
const BLOCKING_IO_PATTERNS: &[&str] = &[
    ".accept(",
    ".read(",
    ".read_exact(",
    ".read_to_end(",
    ".read_to_string(",
    ".write(",
    ".write_all(",
    "read_msg(",
    "write_msg(",
];

fn scan_reactor_nonblocking(src: &str, emit: &mut dyn FnMut(&'static str, &str, u32, &str)) {
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx as u32 + 1;
        if line.starts_with("//") {
            continue;
        }
        let code_part = strip_line_comment(raw);
        for pat in BLOCKING_IO_PATTERNS {
            if code_part.contains(pat) {
                emit(
                    "RL009",
                    &format!(
                        "raw socket call ({pat}) in the reactor: one blocking \
                         syscall parks every connection of the site; route it \
                         through the nonblocking read_some/write_some/accept_some \
                         helpers or justify with `// replint: allow(RL009)`"
                    ),
                    lineno,
                    line,
                );
                break;
            }
        }
    }
}

/// Identifier fragments that mark a duration constant as a retry knob:
/// a `const …RETRY…: Duration` hardcodes what `RetryPolicy` should own.
const RETRY_KNOB_FRAGMENTS: &[&str] = &["RETRY", "TIMEOUT", "BACKOFF"];

/// RL010: timing policy must live in `runtime/src/policy.rs`. Flags
/// bare `thread::sleep` calls and hardcoded retry/timeout/backoff
/// `Duration` constants anywhere else under `crates/runtime`, skipping
/// `#[cfg(test)]` regions the same way RL008 does.
fn scan_timing(src: &str, emit: &mut dyn FnMut(&'static str, &str, u32, &str)) {
    let mut region = TestRegion::Outside;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx as u32 + 1;
        if line.starts_with("//") {
            continue;
        }
        let code_part = strip_line_comment(raw);
        let (opens, closes) = brace_count(code_part);
        match region {
            TestRegion::Outside => {
                if code_part.contains("#[cfg(test)]") {
                    region = TestRegion::AwaitBrace;
                    continue;
                }
            }
            TestRegion::AwaitBrace => {
                if opens > 0 {
                    let depth = opens - closes;
                    region =
                        if depth > 0 { TestRegion::Inside(depth) } else { TestRegion::Outside };
                }
                continue;
            }
            TestRegion::Inside(depth) => {
                let depth = depth + opens - closes;
                region = if depth > 0 { TestRegion::Inside(depth) } else { TestRegion::Outside };
                continue;
            }
        }
        if code_part.contains("thread::sleep") {
            emit(
                "RL010",
                "bare thread::sleep in runtime code: pacing belongs to the policy \
                 module (policy::pace, RetryPolicy::delay) so every wait is \
                 configurable and jittered in one place; justify with \
                 `// replint: allow(RL010)`",
                lineno,
                line,
            );
        }
        if let Some(name) = hardcoded_retry_const(code_part) {
            emit(
                "RL010",
                &format!(
                    "hardcoded retry-duration constant `{name}`: timing knobs \
                     belong on RetryPolicy in runtime/src/policy.rs, not as \
                     per-module constants; justify with `// replint: allow(RL010)`"
                ),
                lineno,
                line,
            );
        }
    }
}

/// The name of a `const …RETRY/TIMEOUT/BACKOFF…: Duration` declared on
/// this line, if any.
fn hardcoded_retry_const(code: &str) -> Option<String> {
    let pos = code.find("const ")?;
    let rest = code[pos + "const ".len()..].trim_start();
    let ident: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if ident.is_empty() {
        return None;
    }
    let after = rest[ident.len()..].trim_start();
    let ty = after.strip_prefix(':')?.trim_start();
    if !ty.starts_with("Duration") && !ty.starts_with("std::time::Duration") {
        return None;
    }
    let upper = ident.to_ascii_uppercase();
    if RETRY_KNOB_FRAGMENTS.iter().any(|frag| upper.contains(frag)) {
        Some(ident)
    } else {
        None
    }
}

/// The raw transport send banned outside the send funnel.
const RAW_SEND_PATTERN: &str = ".try_send(";

/// The send funnel's signature in `runtime/src/transport.rs`.
const SEND_FUNNEL_FN: &str = "fn flush(";

/// The brace-depth extent of one item: fed every line with whether the
/// item starts on it, it says whether the line is inside (the
/// signature line and those up to its opening brace included).
#[derive(Default)]
struct ItemScope {
    /// Brace depth of the item's body while inside it.
    depth: Option<i32>,
    /// Seen the signature, not yet its opening brace.
    awaiting_brace: bool,
}

impl ItemScope {
    fn step(&mut self, starts: bool, opens: i32, closes: i32) -> bool {
        if let Some(depth) = self.depth {
            let depth = depth + opens - closes;
            self.depth = (depth > 0).then_some(depth);
            return true;
        }
        if !starts && !self.awaiting_brace {
            return false;
        }
        self.awaiting_brace = opens == 0;
        let depth = opens - closes;
        self.depth = (depth > 0).then_some(depth);
        true
    }
}

/// RL012: link bytes reach a peer socket only from the link log. A raw
/// `Transport::try_send` call anywhere in `crates/runtime` outside the
/// body of `Net::flush` in `transport.rs` (`funnel`: the file scanned
/// is that one), which offers the wire the log from its send cursor and
/// moves the cursor past what the socket took, writes bytes the replay/dedup discipline never sees. `#[cfg(test)]`
/// regions are skipped the same way RL008 skips them.
fn scan_raw_transport_send(
    src: &str,
    funnel: bool,
    emit: &mut dyn FnMut(&'static str, &str, u32, &str),
) {
    let mut region = TestRegion::Outside;
    let mut flush = ItemScope::default();
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx as u32 + 1;
        if line.starts_with("//") {
            continue;
        }
        let code_part = strip_line_comment(raw);
        let (opens, closes) = brace_count(code_part);
        match region {
            TestRegion::Outside => {
                if code_part.contains("#[cfg(test)]") {
                    region = TestRegion::AwaitBrace;
                    continue;
                }
            }
            TestRegion::AwaitBrace => {
                if opens > 0 {
                    let depth = opens - closes;
                    region =
                        if depth > 0 { TestRegion::Inside(depth) } else { TestRegion::Outside };
                }
                continue;
            }
            TestRegion::Inside(depth) => {
                let depth = depth + opens - closes;
                region = if depth > 0 { TestRegion::Inside(depth) } else { TestRegion::Outside };
                continue;
            }
        }
        if funnel && flush.step(code_part.contains(SEND_FUNNEL_FN), opens, closes) {
            continue;
        }
        if code_part.contains(RAW_SEND_PATTERN) {
            emit(
                "RL012",
                &format!(
                    "raw transport send ({RAW_SEND_PATTERN}) outside Net::flush: \
                     bytes written here bypass the link log's send cursor, \
                     which sequencing, acks and replay read; send through \
                     Net::send and let the reactor's flush write them, or \
                     justify with `// replint: allow(RL012)`"
                ),
                lineno,
                line,
            );
        }
    }
}

/// Lock-manager tokens banned from the MVCC snapshot-read path. Direct
/// type mentions and every route to the `Store::locks` field.
const LOCK_PATH_PATTERNS: &[&str] =
    &["LockManager", "LockMode", "self.locks", ".locks()", ".locks_mut("];

/// The functions of `storage/src/store.rs` on the snapshot-read path.
const SNAPSHOT_READ_FNS: &[&str] = &["fn read_snapshot"];

/// RL011: the MVCC snapshot-read path stays lock-free. In
/// `storage/src/cells.rs`, `storage/src/mvcc.rs` and
/// `storage/src/snapshot.rs` the lock-manager tokens are banned
/// everywhere; in `storage/src/store.rs` only inside the
/// [`SNAPSHOT_READ_FNS`] items, tracked by brace depth (the rest of the
/// store legitimately owns the 2PL path). `#[cfg(test)]` regions are
/// skipped the same way RL008 skips them; other determinism-class files
/// are untouched.
fn scan_mvcc_lock_free(
    path_label: &str,
    src: &str,
    emit: &mut dyn FnMut(&'static str, &str, u32, &str),
) {
    let norm = path_label.replace('\\', "/");
    let whole_file = ["cells.rs", "mvcc.rs", "snapshot.rs"]
        .iter()
        .any(|file| norm.contains(&format!("storage/src/{file}")));
    let read_fn_only = norm.contains("storage/src/store.rs");
    if !whole_file && !read_fn_only {
        return;
    }
    let mut region = TestRegion::Outside;
    // A snapshot-read function's body (`read_fn_only` files).
    let mut read_fn = ItemScope::default();
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx as u32 + 1;
        if line.starts_with("//") {
            continue;
        }
        let code_part = strip_line_comment(raw);
        let (opens, closes) = brace_count(code_part);
        match region {
            TestRegion::Outside => {
                if code_part.contains("#[cfg(test)]") {
                    region = TestRegion::AwaitBrace;
                    continue;
                }
            }
            TestRegion::AwaitBrace => {
                if opens > 0 {
                    let depth = opens - closes;
                    region =
                        if depth > 0 { TestRegion::Inside(depth) } else { TestRegion::Outside };
                }
                continue;
            }
            TestRegion::Inside(depth) => {
                let depth = depth + opens - closes;
                region = if depth > 0 { TestRegion::Inside(depth) } else { TestRegion::Outside };
                continue;
            }
        }
        let starts = SNAPSHOT_READ_FNS.iter().any(|name| code_part.contains(name));
        if !whole_file && !read_fn.step(starts, opens, closes) {
            continue;
        }
        for pat in LOCK_PATH_PATTERNS {
            if code_part.contains(pat) {
                emit(
                    "RL011",
                    &format!(
                        "lock-manager access ({pat}) on the MVCC snapshot-read \
                         path: snapshot reads must never block behind the write \
                         stream; serve them from the cell or its side chain, or justify \
                         with `// replint: allow(RL011)`"
                    ),
                    lineno,
                    line,
                );
                break;
            }
        }
    }
}

/// True if the `"` at `bytes[i]` opens or closes a string literal:
/// neither escaped nor the char literal `'"'`.
fn opens_or_closes_string(bytes: &[u8], i: usize) -> bool {
    let after = bytes.get(i + 1).copied();
    i == 0 || (bytes[i - 1] != b'\\' && !(bytes[i - 1] == b'\'' && after == Some(b'\'')))
}

fn brace_count(code: &str) -> (i32, i32) {
    let mut opens = 0;
    let mut closes = 0;
    let mut in_str = false;
    let bytes = code.as_bytes();
    for i in 0..bytes.len() {
        match bytes[i] {
            b'"' if opens_or_closes_string(bytes, i) => in_str = !in_str,
            b'{' if !in_str => opens += 1,
            b'}' if !in_str => closes += 1,
            _ => {}
        }
    }
    (opens, closes)
}

fn source_diag(code: &'static str, message: &str, file: &str, line: u32, text: &str) -> Diagnostic {
    Diagnostic::error(
        code,
        format!("{file}:{line}: {message}"),
        Witness::Source { file: file.to_owned(), line, text: text.to_owned() },
    )
}

/// Names declared in this file with an explicit `HashMap<`/`HashSet<`
/// type ascription: `name: HashMap<...>` in struct fields, lets, or
/// signatures.
fn collect_hash_bindings(src: &str) -> Vec<String> {
    let mut names = Vec::new();
    for raw in src.lines() {
        let line = strip_line_comment(raw);
        let mut rest = line;
        while let Some(colon) = rest.find(':') {
            let (before, after) = rest.split_at(colon);
            let after = &after[1..];
            let after_trim = after.trim_start();
            if after_trim.starts_with("HashMap<")
                || after_trim.starts_with("HashSet<")
                || after_trim.starts_with("std::collections::HashMap<")
                || after_trim.starts_with("std::collections::HashSet<")
            {
                if let Some(name) = trailing_ident(before) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
            rest = after;
        }
    }
    names
}

fn trailing_ident(s: &str) -> Option<String> {
    let s = s.trim_end();
    let end = s.len();
    let start = s
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_alphanumeric() || *c == '_')
        .map(|(i, _)| i)
        .last()?;
    let ident = &s[start..end];
    let first = ident.chars().next()?;
    if first.is_alphabetic() || first == '_' {
        Some(ident.to_owned())
    } else {
        None
    }
}

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

fn starts_with_iteration_method(s: &str) -> bool {
    ITER_METHODS.iter().any(|m| s.starts_with(m))
}

/// True if `trimmed` ends with the bare binding `name` (a hanging chain
/// root, e.g. `let v: Vec<_> = pending` before a `.keys()` line).
fn chain_root_ends_with(trimmed: &str, name: &str) -> bool {
    trimmed.ends_with(name) && {
        let before = &trimmed[..trimmed.len() - name.len()];
        !before.chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

fn iterates_hash_binding(line: &str, name: &str) -> bool {
    // Direct or field-access iteration: `name.keys()`, `self.name.iter()`,
    // or through a chain of intermediate calls: `name.lock().keys()`.
    for (pos, _) in line.match_indices(name) {
        if ident_continues_left(line, pos) && !line[..pos].ends_with('.') {
            continue;
        }
        let mut rest = &line[pos + name.len()..];
        loop {
            if starts_with_iteration_method(rest) {
                return true;
            }
            match skip_chain_segment(rest) {
                Some(next) => rest = next,
                None => break,
            }
        }
    }
    for pat in [format!("in &{name}"), format!("in &mut {name}"), format!("in {name} ")] {
        for (pos, _) in line.match_indices(&pat) {
            let after = pos + pat.len();
            if !ident_continues_right(line, after) {
                return true;
            }
        }
    }
    false
}

/// Skip one `.method(args)` (or `?`) chain segment, returning the rest
/// of the line after it, or `None` if the chain ends here.
fn skip_chain_segment(s: &str) -> Option<&str> {
    if let Some(rest) = s.strip_prefix('?') {
        return Some(rest);
    }
    let rest = s.strip_prefix('.')?;
    let ident_len = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').count();
    if ident_len == 0 {
        return None;
    }
    let rest = &rest[ident_len..];
    let rest = rest.strip_prefix('(')?;
    let mut depth = 1usize;
    for (i, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[i + 1..]);
                }
            }
            _ => {}
        }
    }
    None
}

fn ident_continues_left(line: &str, pos: usize) -> bool {
    line[..pos].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.')
}

fn ident_continues_right(line: &str, pos: usize) -> bool {
    line[pos..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Strip a trailing `// …` comment, ignoring `//` inside string literals
/// (a cheap scan: tracks double-quote parity).
fn strip_line_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' if opens_or_closes_string(bytes, i) => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        scan_file("test.rs", src).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn flags_wall_clock_and_rng() {
        let src = "let t = SystemTime::now();\nlet i = Instant::now();\nlet r = rand::rng();\nlet q = thread_rng();\n";
        assert_eq!(codes(src), vec!["RL001", "RL002", "RL003", "RL003"]);
    }

    #[test]
    fn flags_entropy_seeding() {
        let src = "let a = StdRng::from_entropy();\nlet b = SmallRng::from_os_rng();\nlet mut c = OsRng;\ngetrandom(&mut buf).unwrap();\n";
        assert_eq!(codes(src), vec!["RL005", "RL005", "RL005", "RL005"]);
    }

    #[test]
    fn seeded_construction_not_flagged() {
        let src = "let rng = StdRng::seed_from_u64(params.seed);\nlet s = splitmix64(seed);\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn comments_are_ignored() {
        let src = "// SystemTime::now is banned\nlet x = 1; // Instant::now\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn hash_iteration_flagged_with_witness() {
        let src =
            "let pending: HashMap<u64, Txn> = HashMap::new();\nfor (k, v) in pending.iter() {\n";
        let diags = scan_file("x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL004");
        match &diags[0].witness {
            Witness::Source { file, line, .. } => {
                assert_eq!(file, "x.rs");
                assert_eq!(*line, 2);
            }
            w => panic!("wrong witness {w:?}"),
        }
    }

    #[test]
    fn allow_comment_silences_hash_iteration() {
        let same_line =
            "let m: HashSet<u32> = HashSet::new();\nlet v: Vec<_> = m.iter().collect(); // replint: allow(hash-iter)\n";
        assert!(codes(same_line).is_empty());
        let line_above =
            "let m: HashSet<u32> = HashSet::new();\n// replint: allow(hash-iter)\nfor x in &m {\n";
        assert!(codes(line_above).is_empty());
    }

    #[test]
    fn per_code_allow_silences_any_rule() {
        let src = "let t = SystemTime::now(); // replint: allow(RL001)\n";
        assert!(codes(src).is_empty());
        let above = "// replint: allow(RL002)\nlet i = Instant::now();\n";
        assert!(codes(above).is_empty());
        let multi =
            "// replint: allow(RL001, RL002)\nlet t = (SystemTime::now(), Instant::now());\n";
        assert!(codes(multi).is_empty());
    }

    #[test]
    fn allow_for_wrong_code_does_not_silence() {
        let src = "let t = SystemTime::now(); // replint: allow(RL002)\n";
        // The finding survives and the suppression is reported stale.
        assert_eq!(codes(src), vec!["RL001", "RL000"]);
    }

    #[test]
    fn stale_suppression_warns_rl000() {
        let src = "// replint: allow(RL004)\nlet x = 1;\n";
        let diags = scan_file("y.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL000");
        assert_eq!(diags[0].severity, crate::diag::Severity::Warning);
    }

    #[test]
    fn used_suppression_does_not_warn() {
        let src =
            "let m: HashSet<u32> = HashSet::new();\nlet v: Vec<_> = m.iter().collect(); // replint: allow(RL004)\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn btree_iteration_not_flagged() {
        let src = "let m: BTreeMap<u32, u32> = BTreeMap::new();\nfor x in m.iter() {\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn unrelated_names_not_flagged() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\nlet matrix = rows.iter();\nfor x in &matrix2 {\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn field_access_iteration_flagged() {
        let src = "struct S { pending: HashMap<u64, u64>, }\nfn f(s: &S) { for x in s.pending.iter() {} }\n";
        assert_eq!(codes(src), vec!["RL004"]);
    }

    #[test]
    fn chained_keys_values_drain_flagged() {
        let decl = "let m: HashMap<u64, u64> = HashMap::new();\n";
        for iter in ["m.keys()", "m.values()", "m.drain()", "m.into_keys()", "m.into_values()"] {
            let src = format!("{decl}let v: Vec<_> = {iter}.collect();\n");
            assert_eq!(codes(&src), vec!["RL004"], "{iter}");
        }
    }

    #[test]
    fn iteration_through_intermediate_calls_flagged() {
        let src = "let m: HashMap<u64, u64> = HashMap::new();\nlet v: Vec<_> = m.clone().keys().collect();\n";
        assert_eq!(codes(src), vec!["RL004"]);
        let locked =
            "struct S { m: HashMap<u64, u64>, }\nfn f(s: &S) { for k in s.m.borrow().keys() {} }\n";
        assert_eq!(codes(locked), vec!["RL004"]);
    }

    #[test]
    fn multiline_chain_iteration_flagged() {
        let src = "let pending: HashMap<u64, u64> = HashMap::new();\nlet v: Vec<_> = pending\n    .keys()\n    .collect();\n";
        let diags = scan_file("z.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL004");
        match &diags[0].witness {
            Witness::Source { line, .. } => assert_eq!(*line, 3),
            w => panic!("wrong witness {w:?}"),
        }
    }

    #[test]
    fn multiline_chain_on_unrelated_root_not_flagged() {
        let src = "let m: HashMap<u64, u64> = HashMap::new();\nlet v: Vec<_> = rows\n    .iter()\n    .collect();\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn blocking_network_io_flagged() {
        let src = "use std::net::TcpListener;\nlet s = TcpStream::connect(addr)?;\nlet u = UdpSocket::bind(addr)?;\n";
        // One diagnostic per line, even when a line matches two patterns.
        assert_eq!(codes(src), vec!["RL006", "RL006", "RL006"]);
        let comment_only = "// TcpStream is banned here\nlet x = 1; // std::net\n";
        assert!(codes(comment_only).is_empty());
    }

    #[test]
    fn sans_io_imports_flagged_only_under_crates_protocol() {
        let src = "use std::thread;\nuse std::time::Duration;\nuse crossbeam::channel;\n";
        let in_protocol: Vec<_> =
            scan_file("crates/protocol/src/machine.rs", src).into_iter().map(|d| d.code).collect();
        assert_eq!(in_protocol, vec!["RL007", "RL007", "RL007"]);
        // The same imports are fine in a driver crate (PanicFree class).
        assert!(scan_file("crates/runtime/src/site.rs", src).is_empty());
    }

    #[test]
    fn sans_io_net_import_flagged_alongside_rl006() {
        // std::net in the protocol core violates both the general
        // no-sockets rule and the sans-I/O contract.
        let src = "use std::net::TcpStream;\n";
        let codes: Vec<_> =
            scan_file("crates/protocol/src/wire.rs", src).into_iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["RL006", "RL007"]);
    }

    #[test]
    fn sans_io_comments_not_flagged() {
        let src = "// drivers own std::time and std::thread\nlet x = 1;\n";
        assert!(scan_file("crates/protocol/src/lib.rs", src).is_empty());
    }

    #[test]
    fn runtime_panics_flagged() {
        let src = "let v = map.get(&k).unwrap();\nlet w = rx.recv().expect(\"closed\");\npanic!(\"boom\");\nunreachable!(\"no\");\n";
        let codes: Vec<_> =
            scan_file("crates/runtime/src/site.rs", src).into_iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["RL008", "RL008", "RL008", "RL008"]);
        // The same source is not a determinism concern elsewhere.
        assert!(scan_file("crates/sim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn runtime_panics_in_cfg_test_not_flagged() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\nfn after() { y.unwrap(); }\n";
        let codes: Vec<_> =
            scan_file("crates/net/src/tcp.rs", src).into_iter().map(|d| d.code).collect();
        // Only the post-module unwrap fires.
        assert_eq!(codes, vec!["RL008"]);
    }

    #[test]
    fn runtime_panic_allow_comment_honored() {
        let src = "// replint: allow(RL008) -- lock poisoning is fatal by design\nlet g = mu.lock().unwrap();\n";
        assert!(scan_file("crates/runtime/src/cluster.rs", src).is_empty());
    }

    #[test]
    fn reactor_blocking_calls_flagged() {
        let src = "let (s, _) = listener.accept()?;\nlet n = stream.read(&mut buf)?;\nstream.write_all(&bytes)?;\nlet msg = read_msg(&mut conn)?;\n";
        let codes: Vec<_> =
            scan_file("crates/runtime/src/reactor.rs", src).into_iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["RL009", "RL009", "RL009", "RL009"]);
        // RL009 is the reactor's alone: elsewhere in the runtime (the
        // threaded in-process cluster) the same calls are legitimate.
        assert!(scan_file("crates/runtime/src/cluster.rs", src).is_empty());
    }

    #[test]
    fn reactor_allow_comment_honored() {
        let src =
            "// replint: allow(RL009) -- nonblocking fd: returns WouldBlock\nstream.read(buf)\n";
        assert!(scan_file("crates/runtime/src/reactor.rs", src).is_empty());
    }

    #[test]
    fn reactor_helper_calls_not_flagged() {
        // Calls routed through the sanctioned helpers don't match the
        // dotted patterns, and nonblocking epoll/buffer machinery is
        // untouched.
        let src = "let n = read_some(&mut c.stream, &mut scratch)?;\nwrite_some(&mut c.stream, chunk)?;\nepoll.wait(&mut events, TICK_MS)?;\nc.reader.feed(&scratch[..n]);\n";
        assert!(scan_file("crates/runtime/src/reactor.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_not_flagged() {
        let src = "let v = map.get(&k).unwrap_or(&0);\nlet w = o.unwrap_or_else(Vec::new);\nlet x = r.expect_err(\"want failure\");\n";
        assert!(scan_file("crates/runtime/src/proc.rs", src).is_empty());
    }

    #[test]
    fn runtime_sleep_flagged_outside_policy() {
        let src = "std::thread::sleep(Duration::from_millis(5));\nthread::sleep(backoff);\n";
        let codes: Vec<_> =
            scan_file("crates/runtime/src/cluster.rs", src).into_iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["RL010", "RL010"]);
        // The policy module is the sanctioned home of the real sleep.
        assert!(scan_file("crates/runtime/src/policy.rs", src).is_empty());
        // Other runtime crates (repl-net) are out of RL010's scope.
        assert!(scan_file("crates/net/src/frame.rs", src).is_empty());
        // And so are the deterministic crates (no thread::sleep rule there).
        assert!(scan_file("crates/sim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn hardcoded_retry_consts_flagged() {
        for decl in [
            "const DIAL_RETRY: Duration = Duration::from_millis(20);",
            "pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(50);",
            "pub(crate) const BACKOFF_BASE: std::time::Duration = Duration::from_millis(5);",
        ] {
            let codes: Vec<_> = scan_file("crates/runtime/src/reactor.rs", decl)
                .into_iter()
                .map(|d| d.code)
                .collect();
            assert_eq!(codes, vec!["RL010"], "{decl}");
        }
    }

    #[test]
    fn unrelated_consts_and_durations_not_flagged() {
        // Not retry knobs: plain period constants, non-Duration consts
        // with knob-ish names, and Duration expressions in ordinary code.
        let src = "const TICK: Duration = Duration::from_millis(1);\n\
                   const MAX_RETRIES: u32 = 5;\n\
                   let d = Duration::from_millis(ms);\n";
        assert!(scan_file("crates/runtime/src/site.rs", src).is_empty());
    }

    #[test]
    fn timing_in_cfg_test_not_flagged() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(D); }\n}\n";
        assert!(scan_file("crates/runtime/src/link.rs", src).is_empty());
    }

    #[test]
    fn timing_allow_comment_honored() {
        let src = "// replint: allow(RL010) -- test-only heal wait\nstd::thread::sleep(HEAL);\n";
        assert!(scan_file("crates/runtime/src/cluster.rs", src).is_empty());
        let const_src =
            "const WARMUP_TIMEOUT: Duration = Duration::ZERO; // replint: allow(RL010)\n";
        assert!(scan_file("crates/runtime/src/proc.rs", const_src).is_empty());
    }

    #[test]
    fn lock_manager_flagged_in_mvcc_files() {
        let src = "use crate::lock::LockManager;\nfn f(locks: &LockManager) { locks.request(t, i, LockMode::Shared); }\n";
        for path in [
            "crates/storage/src/cells.rs",
            "crates/storage/src/mvcc.rs",
            "crates/storage/src/snapshot.rs",
        ] {
            let codes: Vec<_> = scan_file(path, src).into_iter().map(|d| d.code).collect();
            assert_eq!(codes, vec!["RL011", "RL011"], "{path}");
        }
        // Doc comments may *discuss* the lock manager (this is how the
        // real files document the rule itself).
        let doc = "//! The read path never touches the LockManager.\nfn f() {}\n";
        assert!(scan_file("crates/storage/src/mvcc.rs", doc).is_empty());
        // The same tokens in any other determinism-class file are fine —
        // the hash index is the lock table's now, not the cells'.
        assert!(scan_file("crates/storage/src/lock.rs", src).is_empty());
        assert!(scan_file("crates/storage/src/hash_index.rs", src).is_empty());
        assert!(scan_file("crates/sim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn store_rl011_scoped_to_read_snapshot() {
        let src = "\
impl Store {
    pub fn commit(&mut self) {
        self.locks.release_all(t);
    }
    pub fn read_snapshot(&self, snap: SnapshotId, item: ItemId) -> R {
        let g = self.locks.request(t, item, LockMode::Shared);
        g
    }
    pub fn abort(&mut self) {
        self.locks.release_all(t);
    }
}
";
        let diags = scan_file("crates/storage/src/store.rs", src);
        let flagged: Vec<u32> = diags
            .iter()
            .map(|d| match &d.witness {
                Witness::Source { line, .. } => *line,
                _ => 0,
            })
            .collect();
        // Only the access inside `fn read_snapshot` (line 6) is
        // flagged; the 2PL commit/abort paths keep their lock manager.
        assert_eq!(flagged, vec![6]);
        assert_eq!(diags[0].code, "RL011");
    }

    #[test]
    fn a_quote_char_literal_does_not_open_a_string() {
        // `'"'` left the scanner inside a string, so the `{` after it
        // went uncounted and the test region closed one brace early.
        assert_eq!(brace_count("for part in s.split('\"') {"), (1, 0));
        assert_eq!(brace_count("let s = \"a{\\\"}\"; {"), (1, 0));
        let src = "#[cfg(test)]\nmod tests {\n    fn a() {\n        for p in s.split('\"') {\n        }\n    }\n    fn b() {\n        x.unwrap();\n    }\n}\n";
        assert!(scan_file("crates/runtime/src/site.rs", src).is_empty());
    }

    #[test]
    fn rl011_allow_comment_and_cfg_test_honored() {
        let src = "// replint: allow(RL011) -- asserting lock-freedom via the trace\nfn f(m: &LockManager) {}\n";
        assert!(scan_file("crates/storage/src/snapshot.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t(m: &LockManager) {}\n}\n";
        assert!(scan_file("crates/storage/src/mvcc.rs", test_src).is_empty());
    }

    #[test]
    fn raw_transport_send_flagged_outside_funnel() {
        let src = "let s = self.raw.try_send(from, to, seq, &payload);\n";
        let codes: Vec<_> =
            scan_file("crates/runtime/src/site.rs", src).into_iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["RL012"]);
        let codes: Vec<_> =
            scan_file("crates/runtime/src/reactor.rs", src).into_iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["RL012"]);
    }

    #[test]
    fn raw_transport_send_sanctioned_only_in_net_flush() {
        let funnel = "impl Net {\n\
                      \x20   pub fn flush(&mut self, to: SiteId, sink: &mut Sink<'_>) -> io::Result<()> {\n\
                      \x20       let raw = &mut self.raw;\n\
                      \x20       self.links[to.index()].offer(|frames| raw.try_send(to, frames, sink))\n\
                      \x20   }\n\
                      \x20   pub fn send(&mut self, to: SiteId, frames: &[u8]) {\n\
                      \x20       self.raw.try_send(to, frames, sink);\n\
                      \x20   }\n\
                      }\n";
        let lines: Vec<u32> = scan_file("crates/runtime/src/transport.rs", funnel)
            .iter()
            .map(|d| match &d.witness {
                Witness::Source { line, .. } => *line,
                _ => 0,
            })
            .collect();
        // The log's flush is the funnel; a send beside it is not.
        assert_eq!(lines, vec![7]);
        // Nor is the fault-injection wire, which writes what it is given.
        let src = "let s = self.raw.try_send(to, frames, sink);\n";
        let codes: Vec<_> =
            scan_file("crates/runtime/src/nemesis.rs", src).into_iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["RL012"]);
        // A signature split over lines still opens the funnel.
        let split = "fn flush(\n    &self,\n) {\n    self.raw.try_send(to, frames, sink)\n}\n";
        assert!(scan_file("crates/runtime/src/transport.rs", split).is_empty());
        // Other crates (the simulator's engine, say) are out of RL012's
        // scope entirely.
        assert!(scan_file("crates/core/src/engine/mod.rs", src).is_empty());
    }

    #[test]
    fn rl012_allow_comment_and_cfg_test_honored() {
        let src = "// replint: allow(RL012) -- trait forwarding, no outbox here\n\
                   (**self).try_send(from, to, seq, payload)\n";
        assert!(scan_file("crates/runtime/src/reactor.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { raw.try_send(f, t, s, &p); }\n}\n";
        assert!(scan_file("crates/runtime/src/cluster.rs", test_src).is_empty());
    }
}
