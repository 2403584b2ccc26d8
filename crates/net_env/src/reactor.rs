//! A minimal readiness reactor: `epoll` on Linux, `kqueue` on macOS.
//!
//! The socket cluster's IO threads must not spin over every socket probing
//! for `WouldBlock` — at 2000 nodes that is thousands of wasted syscalls per
//! pass. This module is the mio-shaped core they park on instead: a
//! [`Poll`] registers file descriptors with a [`Token`] and an
//! [`Interest`] mask and [`Poll::wait`] blocks until the kernel reports
//! actual readiness (or a [`Waker`] nudges the thread from outside, e.g. a
//! worker that just drained a saturated mailbox or a sender that queued a
//! frame).
//!
//! The workspace vendors no `mio` and no `libc`, so the two selector
//! backends declare the handful of syscalls they need directly; the
//! `unsafe` is confined to the per-OS `sys` modules (the rest of `net_env`
//! still denies it). Platforms without a selector backend get a
//! condvar-based fallback that reports every registered token as ready on
//! each wakeup — semantically the old scan loop, so the cluster stays
//! portable even where it is no longer fast.
//!
//! Discipline expected of callers (and followed by `socket.rs`):
//! - readiness is **level-triggered**: an interest left registered while the
//!   caller cannot make progress (a saturated mailbox, a drained outbox)
//!   busy-loops, so interests are dropped and re-armed around those states;
//! - closing a descriptor implicitly deregisters it from the kernel set, so
//!   crash paths may drop sockets without telling the reactor — stale
//!   tokens surface as lookups that no longer resolve and are freed lazily.

use std::io;
use std::time::Duration;

/// Which readiness events a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the descriptor is readable (or closed by the peer).
    pub read: bool,
    /// Wake when the descriptor accepts more bytes.
    pub write: bool,
}

impl Interest {
    pub(crate) const READ: Self = Self {
        read: true,
        write: false,
    };
    pub(crate) const NONE: Self = Self {
        read: false,
        write: false,
    };
    pub(crate) const fn with_write(self, write: bool) -> Self {
        Self { write, ..self }
    }
}

/// Opaque registration identity, chosen by the caller and echoed back in
/// every [`Event`]. The cluster uses slab indices.
pub(crate) type Token = usize;

/// Token value reserved by the [`Poll`] itself for its wake channel; never
/// surfaced to callers.
const WAKE_TOKEN: Token = usize::MAX;

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: Token,
    pub readable: bool,
    pub writable: bool,
}

/// The descriptor type registrations use: a real fd on unix, an ignored
/// placeholder elsewhere (the fallback selector polls nothing).
#[cfg(unix)]
pub(crate) type SysFd = std::os::unix::io::RawFd;
#[cfg(not(unix))]
pub(crate) type SysFd = u64;

#[cfg(target_os = "linux")]
use epoll as imp;
#[cfg(not(any(target_os = "linux", target_os = "macos")))]
use fallback as imp;
#[cfg(target_os = "macos")]
use kqueue as imp;

/// One IO thread's readiness selector plus its wake channel.
#[derive(Debug)]
pub(crate) struct Poll {
    selector: imp::Selector,
    wake: imp::WakeReader,
}

/// A cheap, cloneable handle that interrupts a concurrent [`Poll::wait`].
#[derive(Debug, Clone)]
pub(crate) struct Waker {
    inner: imp::WakeWriter,
}

impl Poll {
    /// Creates a selector and its wake channel.
    pub(crate) fn new() -> io::Result<Self> {
        let selector = imp::Selector::new()?;
        let wake = imp::WakeReader::new(&selector)?;
        Ok(Self { selector, wake })
    }

    /// Returns a handle other threads use to interrupt [`Poll::wait`].
    pub(crate) fn waker(&self) -> Waker {
        Waker {
            inner: self.wake.writer(),
        }
    }

    /// Registers a descriptor under `token` with the given interest.
    pub(crate) fn register(
        &mut self,
        fd: SysFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.selector.register(fd, token, interest)
    }

    /// Replaces the interest of an already-registered descriptor.
    pub(crate) fn reregister(
        &mut self,
        fd: SysFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.selector.reregister(fd, token, interest)
    }

    /// Removes a descriptor from the selector. Callers may skip this when
    /// they are about to close the descriptor — the kernel drops closed fds
    /// from its set on its own — but it keeps the fallback selector's table
    /// tidy on orderly paths.
    pub(crate) fn deregister(&mut self, fd: SysFd) {
        self.selector.deregister(fd);
    }

    /// Blocks until readiness, a wake, or the timeout; appends reports to
    /// `events` (which is cleared first). Wake-channel events are consumed
    /// internally and never surface.
    pub(crate) fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        events.clear();
        self.selector.wait(events, timeout)?;
        let mut woken = false;
        events.retain(|event| {
            if event.token == WAKE_TOKEN {
                woken = true;
                false
            } else {
                true
            }
        });
        if woken {
            self.wake.drain();
        }
        Ok(())
    }
}

impl Waker {
    /// Interrupts the owning [`Poll`]'s current (or next) `wait`.
    pub(crate) fn wake(&self) {
        self.inner.wake();
    }
}

/// Wake channel built from a non-blocking socketpair: the read half lives
/// in the kernel readiness set, any thread may write a byte into the other
/// half. Used by both real selector backends; the fallback has a condvar
/// instead.
#[cfg(any(target_os = "linux", target_os = "macos"))]
mod wake_pipe {
    use std::io::{self, Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    #[derive(Debug)]
    pub(super) struct WakeReader {
        reader: UnixStream,
        writer: Arc<UnixStream>,
    }

    #[derive(Debug, Clone)]
    pub(super) struct WakeWriter {
        writer: Arc<UnixStream>,
    }

    impl WakeReader {
        pub(super) fn new_pair() -> io::Result<(Self, super::SysFd)> {
            let (reader, writer) = UnixStream::pair()?;
            reader.set_nonblocking(true)?;
            writer.set_nonblocking(true)?;
            let fd = reader.as_raw_fd();
            Ok((
                Self {
                    reader,
                    writer: Arc::new(writer),
                },
                fd,
            ))
        }

        pub(super) fn writer(&self) -> WakeWriter {
            WakeWriter {
                writer: Arc::clone(&self.writer),
            }
        }

        /// Empties the pipe so a level-triggered selector stops reporting it.
        pub(super) fn drain(&mut self) {
            let mut sink = [0u8; 64];
            while matches!(self.reader.read(&mut sink), Ok(n) if n > 0) {}
        }
    }

    impl WakeWriter {
        /// A single byte is enough; a full pipe already guarantees a pending
        /// wakeup, so `WouldBlock` (and any other error) is ignored.
        pub(super) fn wake(&self) {
            let _ = (&*self.writer).write(&[1]);
        }
    }
}

/// Linux backend: `epoll` in level-triggered mode.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod epoll {
    use super::{Event, Interest, SysFd, Token, WAKE_TOKEN};
    use std::io;
    use std::os::raw::c_int;
    use std::time::Duration;

    // The kernel ABI (matching glibc's <sys/epoll.h>); packed on every
    // Linux target, exactly as the libc crate declares it.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const MAX_EVENTS: usize = 256;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn check(rc: c_int) -> io::Result<c_int> {
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut events = EPOLLRDHUP;
        if interest.read {
            events |= EPOLLIN;
        }
        if interest.write {
            events |= EPOLLOUT;
        }
        events
    }

    #[derive(Debug)]
    pub(super) struct Selector {
        epfd: c_int,
    }

    pub(super) use super::wake_pipe::{WakeReader as PipeReader, WakeWriter};

    /// The wake pipe plus its registration in the epoll set.
    #[derive(Debug)]
    pub(super) struct WakeReader {
        pipe: PipeReader,
    }

    impl WakeReader {
        pub(super) fn new(selector: &Selector) -> io::Result<Self> {
            let (pipe, fd) = PipeReader::new_pair()?;
            selector.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, WAKE_TOKEN as u64)?;
            Ok(Self { pipe })
        }

        pub(super) fn writer(&self) -> WakeWriter {
            self.pipe.writer()
        }

        pub(super) fn drain(&mut self) {
            self.pipe.drain();
        }
    }

    impl Selector {
        pub(super) fn new() -> io::Result<Self> {
            // SAFETY: plain fd-returning syscall, no pointers involved.
            let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Self { epfd })
        }

        fn ctl(&self, op: c_int, fd: SysFd, events: u32, data: u64) -> io::Result<()> {
            let mut event = EpollEvent { events, data };
            // SAFETY: `event` outlives the call; the kernel copies it.
            check(unsafe { epoll_ctl(self.epfd, op, fd, &raw mut event) })?;
            Ok(())
        }

        pub(super) fn register(
            &mut self,
            fd: SysFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, mask(interest), token as u64)
        }

        pub(super) fn reregister(
            &mut self,
            fd: SysFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, mask(interest), token as u64)
        }

        pub(super) fn deregister(&mut self, fd: SysFd) {
            // ENOENT here just means the close already removed it.
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let millis = timeout.as_millis().min(i32::MAX as u128) as c_int;
            // Round sub-millisecond timeouts up so a 100µs request does not
            // become a busy loop.
            let millis = if millis == 0 && !timeout.is_zero() {
                1
            } else {
                millis
            };
            // SAFETY: the buffer pointer/length pair describes `events`,
            // which lives for the whole call.
            let rc =
                unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), MAX_EVENTS as c_int, millis) };
            let count = match check(rc) {
                Ok(count) => count as usize,
                // A signal interrupting the wait is a spurious wakeup.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for event in &events[..count] {
                let bits = event.events;
                let hangup = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                out.push(Event {
                    token: event.data as Token,
                    // Hangups count as both: a read observes the EOF/error,
                    // a pending flush observes the write failure.
                    readable: bits & EPOLLIN != 0 || hangup,
                    writable: bits & EPOLLOUT != 0 || hangup,
                });
            }
            Ok(())
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            // SAFETY: the fd is owned by this selector and closed once.
            let _ = unsafe { close(self.epfd) };
        }
    }
}

/// macOS backend: `kqueue` with one `EVFILT_READ`/`EVFILT_WRITE` filter per
/// interest bit.
#[cfg(target_os = "macos")]
#[allow(unsafe_code)]
mod kqueue {
    use super::{Event, Interest, SysFd, Token, WAKE_TOKEN};
    use std::io;
    use std::os::raw::{c_int, c_long, c_void};
    use std::ptr;
    use std::time::Duration;

    // Matches <sys/event.h> on macOS (LP64).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct KEvent {
        ident: usize,
        filter: i16,
        flags: u16,
        fflags: u32,
        data: isize,
        udata: *mut c_void,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const EVFILT_READ: i16 = -1;
    const EVFILT_WRITE: i16 = -2;
    const EV_ADD: u16 = 0x0001;
    const EV_DELETE: u16 = 0x0002;
    const EV_EOF: u16 = 0x8000;
    const EV_ERROR: u16 = 0x4000;
    const MAX_EVENTS: usize = 256;

    extern "C" {
        fn kqueue() -> c_int;
        fn kevent(
            kq: c_int,
            changelist: *const KEvent,
            nchanges: c_int,
            eventlist: *mut KEvent,
            nevents: c_int,
            timeout: *const Timespec,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn check(rc: c_int) -> io::Result<c_int> {
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc)
        }
    }

    #[derive(Debug)]
    pub(super) struct Selector {
        kq: c_int,
    }

    pub(super) use super::wake_pipe::{WakeReader as PipeReader, WakeWriter};

    #[derive(Debug)]
    pub(super) struct WakeReader {
        pipe: PipeReader,
    }

    impl WakeReader {
        pub(super) fn new(selector: &Selector) -> io::Result<Self> {
            let (pipe, fd) = PipeReader::new_pair()?;
            selector.change(fd, EVFILT_READ, EV_ADD, WAKE_TOKEN)?;
            Ok(Self { pipe })
        }

        pub(super) fn writer(&self) -> WakeWriter {
            self.pipe.writer()
        }

        pub(super) fn drain(&mut self) {
            self.pipe.drain();
        }
    }

    impl Selector {
        pub(super) fn new() -> io::Result<Self> {
            // SAFETY: plain fd-returning syscall.
            let kq = check(unsafe { kqueue() })?;
            Ok(Self { kq })
        }

        fn change(&self, fd: SysFd, filter: i16, flags: u16, token: Token) -> io::Result<()> {
            let change = KEvent {
                ident: fd as usize,
                filter,
                flags,
                fflags: 0,
                data: 0,
                udata: token as *mut c_void,
            };
            // SAFETY: the changelist points at one stack value that lives
            // for the whole call; no eventlist is requested.
            let rc = unsafe {
                kevent(
                    self.kq,
                    &raw const change,
                    1,
                    ptr::null_mut(),
                    0,
                    ptr::null(),
                )
            };
            match check(rc) {
                Ok(_) => Ok(()),
                // Deleting a filter that was never added (or died with its
                // fd) is part of normal interest churn.
                Err(e)
                    if flags & EV_DELETE != 0 && e.raw_os_error() == Some(2 /* ENOENT */) =>
                {
                    Ok(())
                }
                Err(e) => Err(e),
            }
        }

        fn apply(&self, fd: SysFd, token: Token, interest: Interest) -> io::Result<()> {
            if interest.read {
                self.change(fd, EVFILT_READ, EV_ADD, token)?;
            } else {
                self.change(fd, EVFILT_READ, EV_DELETE, token)?;
            }
            if interest.write {
                self.change(fd, EVFILT_WRITE, EV_ADD, token)?;
            } else {
                self.change(fd, EVFILT_WRITE, EV_DELETE, token)?;
            }
            Ok(())
        }

        pub(super) fn register(
            &mut self,
            fd: SysFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.apply(fd, token, interest)
        }

        pub(super) fn reregister(
            &mut self,
            fd: SysFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.apply(fd, token, interest)
        }

        pub(super) fn deregister(&mut self, fd: SysFd) {
            let _ = self.change(fd, EVFILT_READ, EV_DELETE, 0);
            let _ = self.change(fd, EVFILT_WRITE, EV_DELETE, 0);
        }

        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            let mut events = [KEvent {
                ident: 0,
                filter: 0,
                flags: 0,
                fflags: 0,
                data: 0,
                udata: ptr::null_mut(),
            }; MAX_EVENTS];
            let ts = Timespec {
                tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
                tv_nsec: c_long::from(timeout.subsec_nanos()),
            };
            // SAFETY: both buffers outlive the call; lengths match.
            let rc = unsafe {
                kevent(
                    self.kq,
                    ptr::null(),
                    0,
                    events.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    &raw const ts,
                )
            };
            let count = match check(rc) {
                Ok(count) => count as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for event in &events[..count] {
                if event.flags & EV_ERROR != 0 {
                    continue;
                }
                let hangup = event.flags & EV_EOF != 0;
                out.push(Event {
                    token: event.udata as Token,
                    readable: event.filter == EVFILT_READ || hangup,
                    writable: event.filter == EVFILT_WRITE || hangup,
                });
            }
            Ok(())
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            // SAFETY: the fd is owned by this selector and closed once.
            let _ = unsafe { close(self.kq) };
        }
    }
}

/// Portable fallback: no kernel selector, just a condvar. Every `wait`
/// reports *all* registered tokens as readable and writable, degenerating
/// to the pre-reactor scan loop — correct (all IO stays non-blocking) but
/// not fast. Linux and macOS never compile this.
#[cfg(not(any(target_os = "linux", target_os = "macos")))]
mod fallback {
    use super::{Event, Interest, SysFd, Token};
    use parking_lot::{Condvar, Mutex};
    use std::collections::HashMap;
    use std::io;
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Debug, Default)]
    struct WakeState {
        pending: Mutex<bool>,
        condvar: Condvar,
    }

    #[derive(Debug)]
    pub(super) struct Selector {
        registered: HashMap<SysFd, Token>,
        wake: Arc<WakeState>,
    }

    #[derive(Debug)]
    pub(super) struct WakeReader {
        wake: Arc<WakeState>,
    }

    #[derive(Debug, Clone)]
    pub(super) struct WakeWriter {
        wake: Arc<WakeState>,
    }

    impl Selector {
        pub(super) fn new() -> io::Result<Self> {
            Ok(Self {
                registered: HashMap::new(),
                wake: Arc::new(WakeState::default()),
            })
        }

        pub(super) fn register(
            &mut self,
            fd: SysFd,
            token: Token,
            _interest: Interest,
        ) -> io::Result<()> {
            self.registered.insert(fd, token);
            Ok(())
        }

        pub(super) fn reregister(
            &mut self,
            fd: SysFd,
            token: Token,
            _interest: Interest,
        ) -> io::Result<()> {
            self.registered.insert(fd, token);
            Ok(())
        }

        pub(super) fn deregister(&mut self, fd: SysFd) {
            self.registered.remove(&fd);
        }

        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            {
                let mut pending = self.wake.pending.lock();
                if !*pending {
                    let _ = self.wake.condvar.wait_for(&mut pending, timeout);
                }
                *pending = false;
            }
            for (&_fd, &token) in &self.registered {
                out.push(Event {
                    token,
                    readable: true,
                    writable: true,
                });
            }
            Ok(())
        }
    }

    impl WakeReader {
        pub(super) fn new(selector: &Selector) -> io::Result<Self> {
            Ok(Self {
                wake: Arc::clone(&selector.wake),
            })
        }

        pub(super) fn writer(&self) -> WakeWriter {
            WakeWriter {
                wake: Arc::clone(&self.wake),
            }
        }

        pub(super) fn drain(&mut self) {}
    }

    impl WakeWriter {
        pub(super) fn wake(&self) {
            *self.wake.pending.lock() = true;
            self.wake.condvar.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{Ipv4Addr, TcpListener, TcpStream};
    #[cfg(unix)]
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    #[cfg(unix)]
    fn fd_of(stream: &TcpStream) -> SysFd {
        stream.as_raw_fd()
    }
    #[cfg(not(unix))]
    fn fd_of(_stream: &TcpStream) -> SysFd {
        0
    }

    #[test]
    fn waker_interrupts_a_long_wait() {
        let mut poll = Poll::new().unwrap();
        let waker = poll.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poll.wait(&mut events, Duration::from_secs(10)).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "wake must cut the wait short"
        );
        assert!(events.is_empty(), "the wake token never surfaces");
        handle.join().unwrap();
    }

    #[test]
    fn readable_socket_reports_its_token() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poll = Poll::new().unwrap();
        poll.register(fd_of(&server), 7, Interest::READ).unwrap();
        client.write_all(b"ready").unwrap();

        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poll.wait(&mut events, Duration::from_millis(100)).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "readiness never reported");
        }
        poll.deregister(fd_of(&server));
    }

    #[test]
    fn dropped_interest_goes_quiet() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poll = Poll::new().unwrap();
        poll.register(fd_of(&server), 3, Interest::READ).unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poll.wait(&mut events, Duration::from_millis(100)).unwrap();
            if events.iter().any(|e| e.token == 3 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline);
        }
        // Drop the read interest while the byte is still unread: a real
        // selector must stop reporting it (the fallback may keep firing —
        // spurious readiness is allowed there).
        poll.reregister(fd_of(&server), 3, Interest::NONE).unwrap();
        #[cfg(any(target_os = "linux", target_os = "macos"))]
        {
            poll.wait(&mut events, Duration::from_millis(50)).unwrap();
            assert!(
                events.iter().all(|e| e.token != 3),
                "empty interest must silence the registration"
            );
        }
    }
}
