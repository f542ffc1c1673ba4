//! A one-shot HTTP/1.1 client: every request opens its own socket and
//! sends `Connection: close`, as curl does. Connect and exchange are
//! timed separately.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a benchmark request may take before it counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Reply {
    pub status: u16,
    pub body: String,
    /// When the connect call started.
    pub start: Instant,
    /// When the socket was connected, before the request was written.
    pub connected: Instant,
    /// When the whole response had been read.
    pub done: Instant,
}

pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    let connected = Instant::now();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    stream.write_all(&out)?;
    let mut raw = Vec::with_capacity(8 << 10);
    stream.read_to_end(&mut raw)?;
    let done = Instant::now();
    let (status, body) = parse(&raw).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
    })?;
    Ok(Reply {
        status,
        body,
        start,
        connected,
        done,
    })
}

/// Status and body of a complete response; `None` when the response is
/// cut short or malformed.
fn parse(raw: &[u8]) -> Option<(u16, String)> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let len: usize = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })?;
    let body = raw.get(split + 4..split + 4 + len)?;
    Some((status, String::from_utf8(body.to_vec()).ok()?))
}

#[cfg(test)]
mod tests {
    use super::parse;

    #[test]
    fn parses_complete_and_rejects_truncated_responses() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        assert_eq!(parse(raw), Some((200, "{}".to_owned())));
        let cut = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}";
        assert_eq!(parse(cut), None);
    }
}
