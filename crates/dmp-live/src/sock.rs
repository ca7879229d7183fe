//! The socket plumbing `std::net` lacks.
//!
//! * Buffer sizes set before the handshake: `SO_SNDBUF` before `connect`
//!   (the server's senders) and `SO_RCVBUF` before `listen` (the emulator's
//!   upstream side; accepted connections inherit it). The kernel sizes a
//!   connection's window from them when it is set up, so setting them on a
//!   connected `std` socket would be too late. This is the crate's one piece
//!   of foreign code: `socket`, `setsockopt`, `bind`, `listen` and `connect`
//!   on Linux; elsewhere the sizes are not applied.
//! * [`Cutoff`]: a way to give up on a thread blocked on a socket, or
//!   pacing itself with sleeps, without abandoning it.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

#[cfg(target_os = "linux")]
mod sys {
    use std::io;
    use std::net::SocketAddr;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    pub const SO_SNDBUF: i32 = 7;
    pub const SO_RCVBUF: i32 = 8;
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;

    /// `struct sockaddr_in`, fields in network byte order.
    #[repr(C)]
    pub struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> RawFd;
        fn setsockopt(fd: RawFd, level: i32, name: i32, val: *const i32, len: u32) -> i32;
        fn connect(fd: RawFd, addr: *const SockaddrIn, len: u32) -> i32;
        fn bind(fd: RawFd, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: RawFd, backlog: i32) -> i32;
    }

    fn check(rc: i32) -> io::Result<()> {
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// `addr` as a `sockaddr_in`; IPv6 is refused.
    pub fn sockaddr(addr: SocketAddr) -> io::Result<SockaddrIn> {
        let SocketAddr::V4(v4) = addr else {
            let msg = "the live plane's sockets are IPv4 only";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        };
        Ok(SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: v4.port().to_be(),
            // The octets are already in network order; keep their layout.
            sin_addr: u32::from_ne_bytes(v4.ip().octets()),
            sin_zero: [0; 8],
        })
    }

    const SOCKADDR_LEN: u32 = std::mem::size_of::<SockaddrIn>() as u32;

    /// A new IPv4 stream socket with the `SOL_SOCKET` option `name` set to
    /// `bytes`. The descriptor closes when the result drops.
    pub fn socket_with(name: i32, bytes: u32) -> io::Result<OwnedFd> {
        // SAFETY: `socket` takes no pointers; a negative return is an error.
        let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by `socket` and nothing else owns it.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        let val = bytes.min(i32::MAX as u32) as i32;
        let len = std::mem::size_of::<i32>() as u32;
        // SAFETY: `val` is a live `i32` and `len` its size, as `setsockopt`
        // reads them for an integer option.
        check(unsafe { setsockopt(fd.as_raw_fd(), SOL_SOCKET, name, &val, len) })?;
        Ok(fd)
    }

    pub fn connect_fd(fd: &OwnedFd, addr: &SockaddrIn) -> io::Result<()> {
        // SAFETY: `addr` points at a whole `sockaddr_in` of `SOCKADDR_LEN`
        // bytes, alive for the call; `fd` is an open socket.
        check(unsafe { connect(fd.as_raw_fd(), addr, SOCKADDR_LEN) })
    }

    pub fn listen_fd(fd: &OwnedFd, addr: &SockaddrIn, backlog: i32) -> io::Result<()> {
        // SAFETY: as in `connect_fd`.
        check(unsafe { bind(fd.as_raw_fd(), addr, SOCKADDR_LEN) })?;
        // SAFETY: `listen` takes no pointers; `fd` is an open, bound socket.
        check(unsafe { listen(fd.as_raw_fd(), backlog) })
    }
}

/// Connect to `addr` (IPv4) from a socket whose `SO_SNDBUF` is set to
/// `bytes` first.
#[cfg(target_os = "linux")]
pub(crate) fn connect_with_sndbuf(addr: SocketAddr, bytes: u32) -> io::Result<TcpStream> {
    let sockaddr = sys::sockaddr(addr)?;
    let fd = sys::socket_with(sys::SO_SNDBUF, bytes)?;
    sys::connect_fd(&fd, &sockaddr)?;
    Ok(TcpStream::from(fd))
}

/// Listen on `addr` (IPv4) from a socket whose `SO_RCVBUF` is set to
/// `bytes` first, so every connection it accepts inherits the size.
#[cfg(target_os = "linux")]
pub(crate) fn listen_with_rcvbuf(
    addr: SocketAddr,
    bytes: u32,
    backlog: i32,
) -> io::Result<TcpListener> {
    let sockaddr = sys::sockaddr(addr)?;
    let fd = sys::socket_with(sys::SO_RCVBUF, bytes)?;
    sys::listen_fd(&fd, &sockaddr, backlog)?;
    Ok(TcpListener::from(fd))
}

/// Connect to `addr`; the send-buffer size is not applied off Linux.
#[cfg(not(target_os = "linux"))]
pub(crate) fn connect_with_sndbuf(addr: SocketAddr, _bytes: u32) -> io::Result<TcpStream> {
    TcpStream::connect(addr)
}

/// Listen on `addr`; the receive-buffer size is not applied off Linux.
#[cfg(not(target_os = "linux"))]
pub(crate) fn listen_with_rcvbuf(
    addr: SocketAddr,
    _bytes: u32,
    _backlog: i32,
) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// Clones of the sockets some threads block on, so that whoever gives up on
/// those threads can cut them loose: [`Cutoff::cut`] shuts each socket down
/// both ways, which ends a blocked `read` (it returns 0) or `write` (it
/// fails) at once, and ends every [`Cutoff::sleep_until`]. The threads then
/// return and can be joined.
#[derive(Debug)]
pub(crate) struct Cutoff {
    /// The watched sockets; `None` once cut.
    watched: Mutex<Option<Vec<TcpStream>>>,
    /// Signalled by the cut.
    cut: Condvar,
}

impl Cutoff {
    /// Nothing watched, nothing cut.
    pub(crate) fn new() -> Self {
        Self {
            watched: Mutex::new(Some(Vec::new())),
            cut: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Option<Vec<TcpStream>>> {
        self.watched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Watch `sock`. Once the cut has come, a socket is not taken on:
    /// `ConnectionAborted`.
    pub(crate) fn watch(&self, sock: &TcpStream) -> io::Result<()> {
        let clone = sock.try_clone()?;
        let mut watched = self.lock();
        let watched = watched.as_mut().ok_or(io::ErrorKind::ConnectionAborted)?;
        watched.push(clone);
        Ok(())
    }

    /// Sleep until `deadline` or the cut, whichever comes first: `false`
    /// once cut. For a thread that paces itself instead of blocking on a
    /// socket.
    pub(crate) fn sleep_until(&self, deadline: Instant) -> bool {
        let mut watched = self.lock();
        while watched.is_some() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return true;
            }
            let woken = self.cut.wait_timeout(watched, left);
            watched = woken.unwrap_or_else(PoisonError::into_inner).0;
        }
        false
    }

    /// Shut every watched socket down, end every sleep, and refuse any
    /// socket watched later.
    pub(crate) fn cut(&self) {
        let watched = self.lock().take();
        self.cut.notify_all();
        for sock in watched.into_iter().flatten() {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }
}
