//! Readiness polling behind a tiny cross-platform abstraction.
//!
//! The ingestion server multiplexes thousands of non-blocking sockets on
//! one thread, which needs an OS readiness facility. The workspace's
//! dependency policy rules out `mio`/`libc`, so on Linux the [`Poller`]
//! declares the four `epoll` entry points directly against the C library
//! the standard library already links. Elsewhere a degraded pure-`std`
//! backend reports every registered socket as ready on a short
//! timer tick — correct (all I/O is non-blocking, so spurious readiness
//! only costs a `WouldBlock`) but busier, which is acceptable for the
//! non-production platforms it covers.
//!
//! The abstraction is deliberately minimal: level-triggered read
//! interest only, one `usize` token per registration, hangup surfaced as
//! a flag. Write interest never arises — the server only reads, and the
//! load generator uses plain blocking sockets.

use std::io;
use std::os::fd::RawFd;

/// One readiness event from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the file descriptor was registered under.
    pub token: usize,
    /// The descriptor is readable (data or EOF pending).
    pub readable: bool,
    /// The peer hung up or the descriptor errored; the next read will
    /// observe EOF or the error.
    pub closed: bool,
}

#[cfg(target_os = "linux")]
pub use linux::Poller;

#[cfg(not(target_os = "linux"))]
pub use fallback::Poller;

#[cfg(target_os = "linux")]
mod linux {
    use super::{io, PollEvent, RawFd};

    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLLIN: u32 = 0x1;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`; packed on x86-64, where the kernel ABI
    /// defines it without padding between `events` and `data`.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // The standard library already links the platform C library; these
    // declarations borrow the epoll entry points from it without pulling
    // in a bindings crate.
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// Level-triggered epoll instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: i32,
    }

    impl Poller {
        /// A fresh poller.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_create1` failure.
        pub fn new() -> io::Result<Self> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: usize) -> io::Result<()> {
            let mut event = EpollEvent {
                events: EPOLLIN | EPOLLRDHUP,
                data: token as u64,
            };
            let event_ptr = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut event
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, event_ptr) }).map(|_| ())
        }

        /// Registers read interest in `fd` under `token`.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failure.
        pub fn register(&self, fd: RawFd, token: usize) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token)
        }

        /// Removes a registration.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failure.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0)
        }

        /// Waits up to `timeout_ms` for readiness, appending events to
        /// `out` (cleared first). Returns the number of events.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_wait` failure; `EINTR` is retried as an
        /// empty wake-up so signal arrival (SIGINT/SIGTERM) surfaces as
        /// a normal tick the caller's stop-flag check catches.
        pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<usize> {
            out.clear();
            let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
            let n = match cvt(unsafe {
                epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms)
            }) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for event in &raw[..n] {
                let events = event.events;
                let data = event.data;
                out.push(PollEvent {
                    token: data as usize,
                    readable: events & EPOLLIN != 0,
                    closed: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod fallback {
    use super::{io, PollEvent, RawFd};
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Degraded pure-`std` backend: no OS readiness facility, so every
    /// registration is reported ready on each tick.
    /// Sound because all ingestion I/O is non-blocking (a spurious
    /// readable costs one `WouldBlock` read), but it polls rather than
    /// sleeps — fine for the non-Linux dev platforms it covers.
    #[derive(Debug, Default)]
    pub struct Poller {
        registered: Mutex<BTreeMap<RawFd, usize>>,
    }

    impl Poller {
        /// A fresh poller.
        ///
        /// # Errors
        ///
        /// Infallible on this backend.
        pub fn new() -> io::Result<Self> {
            Ok(Poller::default())
        }

        /// Registers read interest in `fd` under `token`.
        ///
        /// # Errors
        ///
        /// Infallible on this backend.
        pub fn register(&self, fd: RawFd, token: usize) -> io::Result<()> {
            self.registered
                .lock()
                .expect("poller registry poisoned")
                .insert(fd, token);
            Ok(())
        }

        /// Removes a registration.
        ///
        /// # Errors
        ///
        /// Infallible on this backend.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.registered
                .lock()
                .expect("poller registry poisoned")
                .remove(&fd);
            Ok(())
        }

        /// Sleeps one short tick, then reports every registration as
        /// readable.
        ///
        /// # Errors
        ///
        /// Infallible on this backend.
        pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<usize> {
            out.clear();
            let tick = timeout_ms.clamp(1, 10) as u64;
            std::thread::sleep(Duration::from_millis(tick));
            for &token in self
                .registered
                .lock()
                .expect("poller registry poisoned")
                .values()
            {
                out.push(PollEvent {
                    token,
                    readable: true,
                    closed: false,
                });
            }
            Ok(out.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn reports_readable_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 7).unwrap();

        client.write_all(b"hello").unwrap();
        client.flush().unwrap();

        let mut events = Vec::new();
        let mut saw = false;
        for _ in 0..100 {
            poller.wait(&mut events, 50).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                saw = true;
                break;
            }
        }
        assert!(saw, "pending data never reported readable");

        let mut server = server;
        let mut buf = [0u8; 8];
        let n = server.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");

        poller.deregister(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn wait_times_out_with_no_events() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, 10).unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
    }
}
