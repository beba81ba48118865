//! Wait for a socket to become readable with a sub-millisecond deadline.
//!
//! A socket read timeout (`SO_RCVTIMEO`) is kept in scheduler ticks, so a
//! generator that waits for "a reply or the next due send" with it wakes up
//! to a tick late and sends late. `ppoll(2)` takes a nanosecond timeout on a
//! high-resolution timer; std already links the C library, so one
//! declaration reaches it without a dependency.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Block until `stream` has bytes to read (or is closed or in error), or
/// until `timeout` passes. Returns whether it is readable.
pub fn readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd` and
    // `struct timespec` values for the whole call, `nfds` is 1 to match the
    // single descriptor, and a null signal mask leaves the mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        -1 => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(fd.revents != 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Instant;

    #[test]
    fn wakes_on_data_and_times_out_precisely() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let t = Instant::now();
        assert!(!readable(&client, Duration::from_micros(300)).unwrap());
        let waited = t.elapsed();
        assert!(waited >= Duration::from_micros(300), "{waited:?}");
        assert!(waited < Duration::from_millis(50), "{waited:?}");
        server.write_all(b"x").unwrap();
        assert!(readable(&client, Duration::from_secs(5)).unwrap());
    }
}
