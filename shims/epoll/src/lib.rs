//! Offline shim: a minimal, level-triggered epoll wrapper, and the one
//! non-epoll call a site makes.
//!
//! The container has no registry access, so instead of `mio`/`libc`
//! crates this shim declares the four epoll-related libc symbols
//! directly (`std` already links libc, so they resolve at link time)
//! and wraps them in a safe, deliberately tiny API:
//!
//! * [`Epoll::new`] — `epoll_create1(EPOLL_CLOEXEC)`.
//! * [`Epoll::add`] / [`Epoll::modify`] / [`Epoll::delete`] —
//!   `epoll_ctl`, registering a caller-chosen `u64` token per fd.
//! * [`Epoll::wait`] — `epoll_wait` into a caller-owned event buffer.
//! * [`drop_boot_text`] — one `madvise(MADV_DONTNEED)` over the text a
//!   binary runs only before steady state, from its first function
//!   `boot_text_start` to the linker's `etext`.
//!
//! Level-triggered only (the default): readiness is re-reported on
//! every `wait` until the condition is drained, which makes the caller's
//! readiness loop simple to reason about — no missed-edge hazards.
//! All unsafety in the workspace lives in this file; the error paths
//! surface `io::Error::last_os_error()` like std's own wrappers.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};
use std::sync::atomic::{AtomicUsize, Ordering};

// From <sys/epoll.h> on Linux.
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// The kernel's event record. x86-64 Linux packs this struct (no
/// padding between `events` and `data`); the `packed` repr reproduces
/// the exact ABI layout.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

// `std` links libc; these resolve against it without any crate dep.
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    /// The end of the executable segment's last section; the linker
    /// defines it for a binary that names it.
    static etext: u8;
}

// From <sys/mman.h> on Linux.
const MADV_DONTNEED: c_int = 4;
/// The page `madvise` works in on x86-64 Linux.
const PAGE: usize = 4096;

/// Which readiness conditions to watch on a registered fd.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest(u32);

impl Interest {
    /// Readable (plus peer-hangup, which also wakes readers).
    pub const READ: Interest = Interest(EPOLLIN | EPOLLRDHUP);
    /// Writable.
    pub const WRITE: Interest = Interest(EPOLLOUT);
    /// Readable and writable.
    pub const READ_WRITE: Interest = Interest(EPOLLIN | EPOLLRDHUP | EPOLLOUT);
}

/// One readiness report from [`Epoll::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Data can be read (or the peer hung up, which reads as EOF).
    pub readable: bool,
    /// The fd can accept writes without blocking.
    pub writable: bool,
    /// Error or hangup condition; the caller should tear the fd down.
    pub error: bool,
}

/// A level-triggered epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let mut ev = event.unwrap_or(EpollEvent { events: 0, data: 0 });
        let ptr = if event.is_some() { &mut ev as *mut EpollEvent } else { std::ptr::null_mut() };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with `token` for `interest`.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Some(EpollEvent { events: interest.0, data: token }))
    }

    /// Change the interest set (and token) of a registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Some(EpollEvent { events: interest.0, data: token }))
    }

    /// Deregister `fd`. Harmless to call for an fd the kernel already
    /// dropped from the set (closing an fd deregisters it implicitly).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Wait up to `timeout_ms` (`-1` = forever, `0` = poll) for
    /// readiness, appending decoded events to `out`. Returns the number
    /// of events delivered; `EINTR` is reported as zero events so
    /// callers need no signal-handling special case.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
        let n = unsafe {
            epoll_wait(self.fd, raw.as_mut_ptr(), raw.len() as c_int, timeout_ms as c_int)
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for ev in &raw[..n as usize] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        let _ = unsafe { close(self.fd) };
    }
}

/// The first function of the boot text: the release `repld` is linked
/// with the functions a site runs after its mesh is up (steady state)
/// first, then this one, then the functions it runs only before
/// (`crates/runtime/repld.order`). Never called; its address is where
/// [`drop_boot_text`] starts.
#[no_mangle]
#[inline(never)]
extern "C" fn boot_text_start() {}

/// What [`drop_boot_text`] calls last, with the bytes it covered: a
/// fixed address a tracer can break on once the drop has returned
/// (`tools/hot_text.py`).
#[no_mangle]
#[inline(never)]
extern "C" fn boot_text_dropped(bytes: usize) -> usize {
    std::hint::black_box(bytes)
}

/// Calls of [`drop_boot_text`] that dropped text, in this process.
static BOOT_TEXT_DROPS: AtomicUsize = AtomicUsize::new(0);

/// The whole pages of `[start, end)`: `start` rounded up and `end` down
/// to a page, or `None` when no whole page lies between them.
fn boot_text_range(start: usize, end: usize) -> Option<(usize, usize)> {
    let lo = start.checked_next_multiple_of(PAGE)?;
    let hi = end - end % PAGE;
    (lo < hi).then_some((lo, hi))
}

/// Drop this process's resident pages of the text from
/// `boot_text_start` to `etext`: one `madvise(MADV_DONTNEED)` on the
/// whole pages between them. Text is a read-only, file-backed private
/// mapping, so the call only unmaps its pages, and a later call into
/// the range faults them back from the page cache. Returns the bytes
/// covered; 0, and no call, when the range holds no whole page.
#[no_mangle]
#[inline(never)]
pub fn drop_boot_text() -> io::Result<usize> {
    let start = boot_text_start as *const () as usize;
    let end = std::ptr::addr_of!(etext) as usize;
    let Some((lo, hi)) = boot_text_range(start, end) else { return Ok(0) };
    // SAFETY: `[lo, hi)` is whole pages of this binary's own text, from
    // its boot marker to the end of its executable segment: a read-only,
    // file-backed private mapping. `MADV_DONTNEED` only unmaps those
    // pages, and the next access faults each back from the file, so no
    // byte this process reads changes and nothing it can write is lost.
    if unsafe { madvise(lo as *mut c_void, hi - lo, MADV_DONTNEED) } != 0 {
        return Err(io::Error::last_os_error());
    }
    BOOT_TEXT_DROPS.fetch_add(1, Ordering::Relaxed);
    Ok(boot_text_dropped(hi - lo))
}

/// How many times [`drop_boot_text`] has dropped text in this process.
pub fn boot_text_drops() -> usize {
    BOOT_TEXT_DROPS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn reports_readability_level_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing to read yet: a zero-timeout wait returns no events.
        let mut events = Vec::new();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        client.write_all(b"xy").unwrap();
        // Level-triggered: readiness persists across waits until drained.
        for _ in 0..2 {
            events.clear();
            ep.wait(&mut events, 1000).unwrap();
            let ev = events.iter().find(|e| e.token == 7).expect("readable event");
            assert!(ev.readable);
        }
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 2);
        events.clear();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));
    }

    #[test]
    fn write_interest_and_modify() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let _server = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        // An idle socket's send buffer is empty: writable immediately.
        ep.add(client.as_raw_fd(), 1, Interest::READ_WRITE).unwrap();
        let mut events = Vec::new();
        ep.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        // Dropping write interest stops the writable reports.
        ep.modify(client.as_raw_fd(), 1, Interest::READ).unwrap();
        events.clear();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 1 || !e.writable));

        ep.delete(client.as_raw_fd()).unwrap();
        events.clear();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn hangup_reports_error_and_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), 3, Interest::READ).unwrap();
        drop(client);
        let mut events = Vec::new();
        ep.wait(&mut events, 1000).unwrap();
        let ev = events.iter().find(|e| e.token == 3).expect("hangup event");
        // A clean FIN reads as EOF; readable wakes the reader to see it.
        assert!(ev.readable);
    }

    #[test]
    fn the_boot_range_is_the_whole_pages_between_marker_and_etext() {
        // Both ends rounded inward to a page.
        assert_eq!(boot_text_range(0x1010, 0x5ff0), Some((0x2000, 0x5000)));
        // Ends already on a page stay.
        assert_eq!(boot_text_range(0x2000, 0x5000), Some((0x2000, 0x5000)));
        // One whole page.
        assert_eq!(boot_text_range(0x1fff, 0x3000), Some((0x2000, 0x3000)));
        // Less than a whole page: no call.
        assert_eq!(boot_text_range(0x1010, 0x2ff0), None);
        // The marker at or after `etext`: no call.
        assert_eq!(boot_text_range(0x5000, 0x5000), None);
        assert_eq!(boot_text_range(0x6000, 0x5000), None);
        // A marker in the last page of the address space.
        assert_eq!(boot_text_range(usize::MAX - 10, usize::MAX), None);
    }

    #[test]
    fn the_boot_marker_lies_before_etext() {
        // The linker defines `etext` past every function of the binary.
        let end = std::ptr::addr_of!(etext) as usize;
        assert!((boot_text_start as *const () as usize) < end);
        assert!((boot_text_dropped as *const () as usize) < end);
    }
}
