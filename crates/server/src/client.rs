//! A minimal blocking client for the serve protocol, used by the test
//! suites, the workload driver, and the benches. One `ServeClient` is
//! one TCP connection; requests are serialized on it (the protocol is
//! strictly request/response per connection, though requests may be
//! pipelined by writing several frames before reading).

use crate::proto::{read_response, Page, Response};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Blocking protocol client over one loopback connection.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// The outgoing frame, reused between requests.
    frame: Vec<u8>,
}

impl ServeClient {
    /// Connects with a sane default I/O timeout (5 s).
    ///
    /// # Errors
    ///
    /// Socket errors from connecting.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::connect_timeout(addr, Duration::from_secs(5))
    }

    /// Connects with an explicit read/write timeout.
    ///
    /// # Errors
    ///
    /// Socket errors from connecting.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServeClient {
            stream,
            reader,
            frame: Vec::new(),
        })
    }

    /// Sends one raw frame (a newline is appended; line and newline go
    /// out in one write, so one segment under `TCP_NODELAY`) and reads
    /// the response — the building block every typed helper uses.
    ///
    /// # Errors
    ///
    /// I/O errors from the socket, `UnexpectedEof` when the server
    /// closed the connection, `InvalidData` on framing violations.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<Response> {
        self.frame.clear();
        self.frame.extend_from_slice(line.as_bytes());
        self.frame.push(b'\n');
        self.stream.write_all(&self.frame)?;
        read_response(&mut self.reader)
    }

    /// Writes raw bytes without framing — for protocol-abuse tests
    /// (partial frames, garbage, oversized payloads).
    ///
    /// # Errors
    ///
    /// Socket write errors.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads one response without sending anything (pairs with
    /// [`ServeClient::send_raw`] for pipelining tests).
    ///
    /// # Errors
    ///
    /// Same as [`ServeClient::request_line`].
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        read_response(&mut self.reader)
    }

    /// Announces a rate-limit principal.
    ///
    /// # Errors
    ///
    /// I/O errors from the exchange.
    pub fn hello(&mut self, client: &str) -> std::io::Result<Response> {
        self.request_line(&format!("HELLO {client}"))
    }

    /// Requests one page.
    ///
    /// # Errors
    ///
    /// I/O errors from the exchange.
    pub fn page(&mut self, kind: Page, user: i64, arg: Option<i64>) -> std::io::Result<Response> {
        let line = match arg {
            Some(a) => format!("PAGE {} {user} {a}", kind.name()),
            None => format!("PAGE {} {user}", kind.name()),
        };
        self.request_line(&line)
    }

    /// `HEALTH` probe.
    ///
    /// # Errors
    ///
    /// I/O errors from the exchange.
    pub fn health(&mut self) -> std::io::Result<Response> {
        self.request_line("HEALTH")
    }

    /// Fetches the metrics exposition.
    ///
    /// # Errors
    ///
    /// I/O errors from the exchange.
    pub fn metrics(&mut self) -> std::io::Result<Response> {
        self.request_line("METRICS")
    }

    /// Issues an admin command (`stats`, `flush`, `checkpoint`,
    /// `drain`).
    ///
    /// # Errors
    ///
    /// I/O errors from the exchange.
    pub fn admin(&mut self, cmd: &str) -> std::io::Result<Response> {
        self.request_line(&format!("ADMIN {cmd}"))
    }

    /// Polite goodbye; the server closes after responding.
    ///
    /// # Errors
    ///
    /// I/O errors from the exchange.
    pub fn quit(&mut self) -> std::io::Result<Response> {
        self.request_line("QUIT")
    }

    /// Adjusts the read timeout mid-connection (fault tests).
    ///
    /// # Errors
    ///
    /// Socket option errors.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(Some(timeout))
    }

    /// The underlying stream, for shutdown/half-close fault tests.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}
