//! A minimal blocking HTTP/1.1 client: `Content-Length` bodies only,
//! which is all `chatiyp serve` emits. Keep-alive connections are
//! reopened when the server closes them (it caps requests per
//! connection), and every open is counted.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status, body, and whether the server closes the
/// connection after it.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// The server sent `Connection: close`.
    pub close: bool,
}

impl Response {
    /// The body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One open connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Opens a connection with Nagle off and a generous read timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads its response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<Response> {
        let conn = if keep_alive { "keep-alive" } else { "close" };
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: loadbench\r\nConnection: {conn}\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body);
        self.reader.get_mut().write_all(&msg)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("headers truncated"));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.parse().map_err(|_| bad("bad content-length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            body,
            close,
        })
    }
}

/// A keep-alive client that reconnects whenever the server closed the
/// previous connection, counting every connection it opens.
pub struct KeepAlive {
    addr: SocketAddr,
    conn: Option<Conn>,
    /// Connections opened so far.
    pub opened: u64,
}

impl KeepAlive {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> KeepAlive {
        KeepAlive {
            addr,
            conn: None,
            opened: 0,
        }
    }

    /// Sends one request over the current connection (opening one if
    /// needed). A transport error drops the connection.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr)?);
            self.opened += 1;
        }
        let conn = self.conn.as_mut().expect("connected above");
        match conn.send(method, path, body, true) {
            Ok(r) => {
                if r.close {
                    self.conn = None;
                }
                Ok(r)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// `GET path` over a fresh connection, requiring a 200.
pub fn get_ok(addr: SocketAddr, path: &str) -> io::Result<String> {
    let r = Conn::connect(addr)?.send("GET", path, b"", false)?;
    if r.status != 200 {
        return Err(io::Error::other(format!(
            "GET {path} answered {}",
            r.status
        )));
    }
    Ok(r.text())
}

/// A JSON string literal (quoted, escaped) for request bodies.
pub fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}
