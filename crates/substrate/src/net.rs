//! A minimal readiness poller over `poll(2)`, plus a wake channel.
//!
//! The serving layer multiplexes thousands of nonblocking sockets onto
//! a fixed pool of I/O workers. The only primitive that requires is
//! "block until one of these fds is readable/writable, or a timeout
//! elapses" — exactly `poll(2)`. There is no crates.io registry in this
//! build environment (no `mio`, no `libc`), so this module carries the
//! one `extern "C"` declaration the workspace needs, confined behind a
//! safe slice-based wrapper. It is the sole `#[allow(unsafe_code)]`
//! island in an otherwise `deny(unsafe_code)` crate.
//!
//! Two pieces:
//!
//! * [`Poller`] — a reusable registration set: `clear` + `register`
//!   each tick, then [`Poller::poll`] and iterate [`Poller::events`].
//!   Registration is rebuilt per tick (O(fds) of plain memory writes),
//!   which keeps the API trivially safe: no fd lifetime is retained
//!   across calls.
//! * [`wake_pair`] — a `socketpair(2)` acting as a cross-thread wake
//!   channel: [`Waker::wake`] is a nonblocking one-byte write any
//!   thread can call, and the [`WakeReceiver`]'s fd is registered in a
//!   `Poller` so a sleeping worker wakes. `std`'s `UnixStream::pair`
//!   gives the pair with no FFI, no listener and no port.

use std::io;
use std::time::Duration;

/// Interest in readability.
pub const READABLE: u8 = 0b01;
/// Interest in writability.
pub const WRITABLE: u8 = 0b10;

/// One ready fd, as reported by [`Poller::events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen token passed to [`Poller::register`].
    pub token: usize,
    /// Readable — includes hangup and error conditions, so a `read`
    /// will return promptly (with 0 or an error) instead of blocking.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// The peer hung up or the fd is in an error state.
    pub hangup: bool,
}

#[cfg(unix)]
mod sys {
    use std::io;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// Mirrors `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(
            fds: *mut PollFd,
            nfds: std::os::raw::c_ulong,
            timeout: std::os::raw::c_int,
        ) -> std::os::raw::c_int;
    }

    /// Safe wrapper: the slice bounds are the only invariant `poll(2)`
    /// needs, and the kernel only ever writes `revents` in place.
    #[allow(unsafe_code)]
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let rc = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
                timeout_ms,
            )
        };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

#[cfg(not(unix))]
mod sys {
    use std::io;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub fn poll_fds(_fds: &mut [PollFd], _timeout_ms: i32) -> io::Result<usize> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "readiness polling requires a unix platform",
        ))
    }
}

/// A reusable `poll(2)` registration set.
///
/// Usage per tick: [`Poller::clear`], [`Poller::register`] every fd of
/// interest, [`Poller::poll`], then iterate [`Poller::events`].
#[derive(Default)]
pub struct Poller {
    fds: Vec<sys::PollFd>,
    tokens: Vec<usize>,
}

impl Poller {
    /// An empty registration set.
    pub fn new() -> Self {
        Poller::default()
    }

    /// Drop all registrations (retains capacity).
    pub fn clear(&mut self) {
        self.fds.clear();
        self.tokens.clear();
    }

    /// Register `fd` with a caller-chosen `token` (returned in the
    /// matching [`Event`]) and an interest mask of [`READABLE`] and/or
    /// [`WRITABLE`] bits.
    pub fn register(&mut self, fd: i32, token: usize, interest: u8) {
        let mut events = 0i16;
        if interest & READABLE != 0 {
            events |= sys::POLLIN;
        }
        if interest & WRITABLE != 0 {
            events |= sys::POLLOUT;
        }
        self.fds.push(sys::PollFd {
            fd,
            events,
            revents: 0,
        });
        self.tokens.push(token);
    }

    /// Number of registered fds.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Whether no fds are registered.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// elapses (`None` blocks indefinitely). Returns the number of
    /// ready fds; `Ok(0)` on timeout or signal interruption.
    pub fn poll(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        match sys::poll_fds(&mut self.fds, timeout_ms) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// The fds reported ready by the last [`Poller::poll`].
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        self.fds
            .iter()
            .zip(self.tokens.iter())
            .filter(|(pfd, _)| pfd.revents != 0)
            .map(|(pfd, &token)| {
                let err = pfd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
                Event {
                    token,
                    readable: pfd.revents & sys::POLLIN != 0 || err,
                    writable: pfd.revents & sys::POLLOUT != 0 || err,
                    hangup: err,
                }
            })
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("fds", &self.fds.len()).finish()
    }
}

#[cfg(unix)]
type WakeStream = std::os::unix::net::UnixStream;
/// Never constructed: [`wake_pair`] is unsupported off unix.
#[cfg(not(unix))]
type WakeStream = std::net::TcpStream;

/// The sending half of a wake channel; cloneable and usable from any
/// thread.
#[derive(Clone)]
pub struct Waker {
    tx: std::sync::Arc<WakeStream>,
}

impl Waker {
    /// Nudge the receiving poller awake. Never blocks: if the wake
    /// socket's buffer is full the receiver is already awake-pending,
    /// so a dropped byte is harmless.
    pub fn wake(&self) {
        use std::io::Write;
        match (&*self.tx).write(&[1u8]) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => {} // peer gone: the poller is shutting down
        }
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker")
    }
}

/// The receiving half of a wake channel: register its fd for
/// [`READABLE`] and [`WakeReceiver::drain`] when it fires.
pub struct WakeReceiver {
    rx: WakeStream,
}

impl WakeReceiver {
    /// The fd to register in a [`Poller`].
    #[cfg(unix)]
    pub fn fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// The fd to register in a [`Poller`] (unsupported off unix).
    #[cfg(not(unix))]
    pub fn fd(&self) -> i32 {
        -1
    }

    /// Consume all pending wake bytes so the fd goes quiet until the
    /// next [`Waker::wake`].
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        loop {
            match (&self.rx).read(&mut sink) {
                Ok(0) => return,        // sender closed
                Ok(_) => continue,      // keep draining
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }
}

impl std::fmt::Debug for WakeReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WakeReceiver")
    }
}

/// Build a connected wake channel over a unix socketpair, both ends
/// nonblocking.
#[cfg(unix)]
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = WakeStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Waker {
            tx: std::sync::Arc::new(tx),
        },
        WakeReceiver { rx },
    ))
}

/// Unsupported off unix, like [`Poller::poll`].
#[cfg(not(unix))]
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "readiness polling requires a unix platform",
    ))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn timeout_returns_zero_without_events() {
        let (_waker, rx) = wake_pair().unwrap();
        let mut poller = Poller::new();
        poller.register(rx.fd(), 7, READABLE);
        let start = Instant::now();
        let n = poller.poll(Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(poller.events().count(), 0);
    }

    #[test]
    fn wake_makes_receiver_readable_and_drain_quiets_it() {
        let (waker, rx) = wake_pair().unwrap();
        let mut poller = Poller::new();
        poller.register(rx.fd(), 42, READABLE);
        waker.wake();
        let n = poller.poll(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        let ev: Vec<Event> = poller.events().collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].token, 42);
        assert!(ev[0].readable);
        rx.drain();
        poller.clear();
        poller.register(rx.fd(), 42, READABLE);
        let n = poller.poll(Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0, "drained wake channel is quiet again");
    }

    #[test]
    fn wake_from_another_thread_unblocks_poll() {
        let (waker, rx) = wake_pair().unwrap();
        let mut poller = Poller::new();
        poller.register(rx.fd(), 0, READABLE);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let n = poller.poll(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 1);
        t.join().unwrap();
    }

    #[test]
    fn writable_interest_reports_writable_socket() {
        let (waker, rx) = wake_pair().unwrap();
        let _keep = waker;
        let mut poller = Poller::new();
        poller.register(rx.fd(), 3, WRITABLE);
        let n = poller.poll(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(n, 1);
        let ev: Vec<Event> = poller.events().collect();
        assert!(ev[0].writable, "an idle TCP socket is writable");
    }

    #[test]
    fn many_wakes_collapse_into_one_drain() {
        let (waker, rx) = wake_pair().unwrap();
        for _ in 0..1000 {
            waker.wake();
        }
        rx.drain();
        let mut poller = Poller::new();
        poller.register(rx.fd(), 0, READABLE);
        assert_eq!(poller.poll(Some(Duration::from_millis(20))).unwrap(), 0);
    }
}
