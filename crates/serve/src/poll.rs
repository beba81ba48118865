//! Block until descriptors are ready: one `extern "C"` declaration of
//! `poll(2)` behind one safe call. std already links the C library, so
//! this needs no dependency.

#![allow(unsafe_code)]

use std::ffi::c_int;
use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Readable, or a listener with a connection to accept.
pub(crate) const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: i16 = 0x004;
/// Error condition; always reported, never requested.
pub(crate) const POLLERR: i16 = 0x008;
/// Hung up; always reported, never requested.
pub(crate) const POLLHUP: i16 = 0x010;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs and macOS.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

/// One `struct pollfd`: a descriptor, the events asked for, and the events
/// `poll` reported.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Ask for `events` on `fd`. The descriptor must stay open until the
    /// [`wait`] that reads this entry returns.
    pub(crate) fn new(fd: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// The events asked for.
    pub(crate) fn events(&self) -> i16 {
        self.events
    }

    /// The events the last [`wait`] reported.
    pub(crate) fn revents(&self) -> i16 {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` reports an event, or until `timeout`
/// passes (`None` waits for ever). Returns how many entries reported one.
/// A signal restarts the wait with the whole `timeout`.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    // Round up, so a sub-millisecond timeout still blocks.
    let ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    let nfds = Nfds::try_from(fds.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many descriptors"))?;
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd` values for the whole call, and `nfds` is its
        // length, so the kernel reads and writes only inside it.
        let n = unsafe { poll(fds.as_mut_ptr(), nfds, ms) };
        if let Ok(n) = usize::try_from(n) {
            return Ok(n);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn wakes_on_a_readable_descriptor_and_times_out_otherwise() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&rx, POLLIN)];
        let t = Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_micros(300))).unwrap(), 0);
        assert!(t.elapsed() >= Duration::from_micros(300));
        assert_eq!(fds[0].revents(), 0);
        tx.write_all(b"x").unwrap();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert_eq!(fds[0].revents(), POLLIN);
    }

    #[test]
    fn a_closed_peer_reports_hang_up_unasked() {
        let (tx, rx) = UnixStream::pair().unwrap();
        drop(tx);
        let mut fds = [PollFd::new(&rx, 0)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert_ne!(fds[0].revents() & POLLHUP, 0);
    }
}
