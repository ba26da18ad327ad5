//! A minimal HTTP/1.1 keep-alive client that timestamps what it receives.
//!
//! The benchmark carries its own client so that a change to the program's
//! client code cannot move the benchmark's numbers.

use crate::spans::now;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A stalled daemon surfaces as an error, not a hang.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Marks a streamed chunk that carries a decoded step (the step fragment).
const STEP_MARK: &str = "{\"token\": ";

/// The bytes of one request; `trace_id` sets the daemon's trace header.
pub fn request_bytes(method: &str, path: &str, body: &str, trace_id: Option<&str>) -> Vec<u8> {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n",
        body.len()
    );
    if let Some(id) = trace_id {
        head.push_str(&format!("x-olive-trace: {id}\r\n"));
    }
    head.push_str("\r\n");
    head.push_str(body);
    head.into_bytes()
}

/// A response and when its parts arrived.
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// When the status line had arrived.
    pub first_byte: Instant,
    /// When the last body byte had arrived.
    pub done: Instant,
    /// Arrival and end offset in `body` of every chunk (chunked replies).
    pub chunks: Vec<(Instant, usize)>,
    /// Arrival of every chunk that carries a decoded step.
    pub steps: Vec<Instant>,
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Writes `request` (from [`request_bytes`]) and reads the whole reply.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.writer.write_all(request)?;
        read_reply(&mut self.reader)
    }
}

/// One request on a fresh connection (scrapes and control requests).
pub fn fetch(addr: SocketAddr, method: &str, path: &str) -> io::Result<Reply> {
    Conn::open(addr)?.exchange(&request_bytes(method, path, "", None))
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

fn read_reply(reader: &mut impl BufRead) -> io::Result<Reply> {
    let status_line = read_line(reader)?;
    let first_byte = now();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line '{status_line}'")))?;
    let mut length = 0usize;
    let mut chunked = false;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| bad(format!("bad length '{value}'")))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
    }
    let mut body = Vec::new();
    let mut chunks = Vec::new();
    let mut steps = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(reader)?;
            let hex = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(hex, 16)
                .map_err(|_| bad(format!("bad chunk size '{size_line}'")))?;
            if size == 0 {
                while !read_line(reader)?.is_empty() {}
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            reader.read_exact(&mut body[start..])?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
            let arrived = now();
            chunks.push((arrived, body.len()));
            if std::str::from_utf8(&body[start..]).is_ok_and(|c| c.contains(STEP_MARK)) {
                steps.push(arrived);
            }
        }
    } else {
        body.resize(length, 0);
        reader.read_exact(&mut body)?;
    }
    let done = now();
    let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body".into()))?;
    Ok(Reply {
        status,
        body,
        first_byte,
        done,
        chunks,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_length_framed_and_chunked_replies() {
        let unary = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let reply = read_reply(&mut &unary[..]).unwrap();
        assert_eq!((reply.status, reply.body.as_str()), (200, "hello"));
        assert!(reply.chunks.is_empty());

        let streamed = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
            3\r\n{\"a\r\nc\r\n{\"token\": 1}\r\n1\r\n}\r\n0\r\n\r\n";
        let reply = read_reply(&mut &streamed[..]).unwrap();
        assert_eq!(reply.body, "{\"a{\"token\": 1}}");
        assert_eq!(reply.chunks.len(), 3);
        assert_eq!(reply.chunks[1].1, 15);
        assert_eq!(reply.steps.len(), 1);
    }
}
