//! The one connected byte stream of the serving layer, TCP or Unix-domain:
//! the server's connections, [`ServeClient`](crate::ServeClient) and the
//! load generator all speak the protocol over a [`Sock`].

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;

use scanshare_common::{Error, Result};

use crate::loadgen::Target;

/// A connected byte stream: TCP or Unix-domain.
pub(crate) enum Sock {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Sock {
    /// Connects to `target`.
    pub(crate) fn connect(target: &Target) -> Result<Sock> {
        match target {
            Target::Tcp(addr) => Sock::connect_tcp(addr.as_str()),
            #[cfg(unix)]
            Target::Unix(path) => Ok(Sock::Unix(UnixStream::connect(path).map_err(Error::io)?)),
        }
    }

    /// Connects over TCP with Nagle's algorithm off: a client waits on the
    /// answer to every frame it writes.
    pub(crate) fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Sock> {
        let stream = TcpStream::connect(addr).map_err(Error::io)?;
        stream.set_nodelay(true).map_err(Error::io)?;
        Ok(Sock::Tcp(stream))
    }

    pub(crate) fn try_clone(&self) -> Result<Sock> {
        Ok(match self {
            Sock::Tcp(s) => Sock::Tcp(s.try_clone().map_err(Error::io)?),
            #[cfg(unix)]
            Sock::Unix(s) => Sock::Unix(s.try_clone().map_err(Error::io)?),
        })
    }

    pub(crate) fn shutdown_both(&self) {
        let _ = match self {
            Sock::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Sock::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Sock::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Sock::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Sock::Unix(s) => s.flush(),
        }
    }
}
