//! A tiny std-only HTTP/1.1 client — enough to drive the server from load
//! generators, smoke scripts and examples without curl or any crate.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Body: the `Content-Length` bytes, or every chunk of a
    /// `Transfer-Encoding: chunked` response concatenated.
    pub body: String,
    /// The individual chunks of a chunked response, in arrival order
    /// (`None` for a `Content-Length`-framed response). Lets callers assert
    /// a response really streamed instead of arriving as one blob.
    pub chunks: Option<Vec<String>>,
}

impl HttpResponse {
    /// First header with this name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Per-chunk callback for [`Connection::request_with_sink_and_headers`]:
/// invoked with each decoded chunk before the next one is read from the
/// socket; an `Err` aborts the read (and desynchronizes the connection —
/// drop it afterwards).
pub type ChunkSink<'a> = &'a mut dyn FnMut(&str) -> std::io::Result<()>;

/// Connection timeout knobs: how long to wait for the TCP connect, for each
/// read (a stalled server must surface as an error, not a hang — the router
/// depends on this to fail over from a dead worker), and for each write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeouts {
    /// TCP connect timeout.
    pub connect: Duration,
    /// Per-read timeout (also bounds each chunk gap of a streamed response).
    pub read: Duration,
    /// Per-write timeout.
    pub write: Duration,
}

impl Timeouts {
    /// The historical defaults of [`Connection::open`]: 10 s connect, 60 s
    /// read (streamed decode steps can be slow on loaded machines), 10 s
    /// write.
    pub const DEFAULT: Timeouts = Timeouts {
        connect: Duration::from_secs(10),
        read: Duration::from_secs(60),
        write: Duration::from_secs(10),
    };

    /// A uniform timeout for all three knobs — probe-style requests.
    pub fn uniform(timeout: Duration) -> Timeouts {
        Timeouts {
            connect: timeout,
            read: timeout,
            write: timeout,
        }
    }
}

impl Default for Timeouts {
    fn default() -> Self {
        Timeouts::DEFAULT
    }
}

/// A kept-alive connection to one server.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Connects to `addr` with [`Timeouts::DEFAULT`].
    ///
    /// # Errors
    ///
    /// Propagates connect/configuration failures.
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        Self::open_with(addr, Timeouts::DEFAULT)
    }

    /// Connects to `addr` with explicit [`Timeouts`].
    ///
    /// # Errors
    ///
    /// Propagates connect/configuration failures; a connect that exceeds
    /// `timeouts.connect` fails with `TimedOut`.
    pub fn open_with(addr: SocketAddr, timeouts: Timeouts) -> std::io::Result<Connection> {
        let stream = TcpStream::connect_timeout(&addr, timeouts.connect)?;
        stream.set_read_timeout(Some(timeouts.read))?;
        stream.set_write_timeout(Some(timeouts.write))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection {
            reader,
            writer: stream,
        })
    }

    /// Issues one request and reads the full response. `body` implies POST
    /// semantics supplied by the caller via `method`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses as `io::Error`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        self.request_with_headers(method, path, body, &[])
    }

    /// [`Connection::request`] with extra request headers appended after
    /// the standard set — how the router stamps proxied requests with the
    /// `x-olive-trace` correlation id.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses as `io::Error`.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        self.write_request(method, path, body, extra_headers)?;
        self.read_response(None)
    }

    /// Like [`Connection::request_with_headers`], but hands each chunk of a
    /// chunked response to `sink` the moment it is decoded — before the
    /// next chunk is read from the socket — so a proxy can relay a stream
    /// with no buffering delay. The returned [`HttpResponse`] still carries
    /// the full body and chunk list; for a non-chunked response `sink` is
    /// never called.
    ///
    /// # Errors
    ///
    /// Propagates socket errors, malformed responses, and any error `sink`
    /// returns (which desynchronizes the connection — drop it afterwards).
    pub fn request_with_sink_and_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        sink: ChunkSink<'_>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        self.write_request(method, path, body, extra_headers)?;
        self.read_response(Some(sink))
    }

    fn write_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<()> {
        let body = body.unwrap_or("");
        // Head and body in one write: separate small segments would tickle
        // Nagle + delayed-ACK stalls on loopback.
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: olive\r\nContent-Length: {}\r\nContent-Type: application/json\r\n",
            body.len()
        );
        for (name, value) in extra_headers {
            request.push_str(name);
            request.push_str(": ");
            request.push_str(value);
            request.push_str("\r\n");
        }
        request.push_str("\r\n");
        request.push_str(body);
        self.writer.write_all(request.as_bytes())?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self, sink: Option<ChunkSink<'_>>) -> std::io::Result<HttpResponse> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let status_line = self.read_line()?;
        // "HTTP/1.1 200 OK"
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("malformed status line '{status_line}'")))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad(format!("malformed header '{line}'")))?;
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        let chunked = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("transfer-encoding"))
            .is_some_and(|(_, v)| v.eq_ignore_ascii_case("chunked"));
        if chunked {
            let chunks = self.read_chunks(sink)?;
            return Ok(HttpResponse {
                status,
                headers,
                body: chunks.concat(),
                chunks: Some(chunks),
            });
        }
        let length: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| v.parse())
            .transpose()
            .map_err(|_| bad("invalid Content-Length".into()))?
            .unwrap_or(0);
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 response body".into()))?;
        Ok(HttpResponse {
            status,
            headers,
            body,
            chunks: None,
        })
    }

    /// Decodes a chunked body: size-line-framed chunks until the terminating
    /// zero chunk (trailers, which this server never sends, are skipped up
    /// to the final blank line). Keep-alive framing stays intact, so the
    /// connection is reusable afterwards.
    fn read_chunks(&mut self, mut sink: Option<ChunkSink<'_>>) -> std::io::Result<Vec<String>> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut chunks = Vec::new();
        loop {
            let line = self.read_line()?;
            let size_token = line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_token, 16)
                .map_err(|_| bad(format!("malformed chunk size '{line}'")))?;
            if size == 0 {
                loop {
                    if self.read_line()?.is_empty() {
                        return Ok(chunks);
                    }
                }
            }
            let mut data = vec![0u8; size];
            self.reader.read_exact(&mut data)?;
            let mut crlf = [0u8; 2];
            self.reader.read_exact(&mut crlf)?;
            if &crlf != b"\r\n" {
                return Err(bad("chunk data not CRLF-terminated".into()));
            }
            let chunk = String::from_utf8(data).map_err(|_| bad("non-UTF-8 chunk".into()))?;
            if let Some(sink) = sink.as_deref_mut() {
                sink(&chunk)?;
            }
            chunks.push(chunk);
        }
    }
}

/// One-shot GET on a fresh connection.
///
/// # Errors
///
/// Propagates connection and protocol failures.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<HttpResponse> {
    Connection::open(addr)?.request("GET", path, None)
}

/// One-shot POST of a JSON body on a fresh connection.
///
/// # Errors
///
/// Propagates connection and protocol failures.
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<HttpResponse> {
    Connection::open(addr)?.request("POST", path, Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    fn is_timeout(e: &std::io::Error) -> bool {
        matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    }

    #[test]
    fn read_timeout_fires_on_a_stalled_listener() {
        // The listener accepts into its backlog but never responds: the
        // request must fail with a timeout after ~the configured read
        // timeout, not hang for the 60-second default.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let timeouts = Timeouts {
            connect: Duration::from_secs(2),
            read: Duration::from_millis(100),
            write: Duration::from_secs(2),
        };
        let mut conn = Connection::open_with(addr, timeouts).expect("backlog accepts the connect");
        let started = Instant::now();
        let err = conn
            .request("GET", "/healthz", None)
            .expect_err("no response must surface as an error");
        assert!(is_timeout(&err), "expected a timeout error, got {err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timeout must fire promptly, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn read_timeout_fires_mid_stream() {
        // The server sends a chunked head plus one chunk, then stalls: the
        // sink must see the first chunk, and the request must then time out
        // instead of waiting forever for the next chunk.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut sink = [0u8; 1024];
            let _ = std::io::Read::read(&mut stream, &mut sink);
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n")
                .unwrap();
            // Hold the socket open, never sending the next chunk.
            std::thread::sleep(Duration::from_millis(500));
        });
        let timeouts = Timeouts::uniform(Duration::from_millis(100));
        let mut conn = Connection::open_with(addr, timeouts).unwrap();
        let mut seen = Vec::new();
        let err = conn
            .request_with_sink_and_headers(
                "GET",
                "/v1/generate",
                None,
                &mut |chunk| {
                    seen.push(chunk.to_string());
                    Ok(())
                },
                &[],
            )
            .expect_err("stalled stream must error");
        assert!(is_timeout(&err), "expected a timeout error, got {err}");
        assert_eq!(
            seen,
            vec!["hello".to_string()],
            "first chunk must reach the sink"
        );
        server.join().unwrap();
    }

    #[test]
    fn sink_sees_chunks_in_order_and_response_still_collects_them() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = std::io::Read::read(&mut stream, &mut buf);
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                      3\r\none\r\n3\r\ntwo\r\n0\r\n\r\n",
                )
                .unwrap();
        });
        let mut conn =
            Connection::open_with(addr, Timeouts::uniform(Duration::from_secs(2))).unwrap();
        let mut seen = Vec::new();
        let response = conn
            .request_with_sink_and_headers(
                "GET",
                "/x",
                None,
                &mut |chunk| {
                    seen.push(chunk.to_string());
                    Ok(())
                },
                &[],
            )
            .unwrap();
        assert_eq!(seen, vec!["one".to_string(), "two".to_string()]);
        assert_eq!(response.chunks, Some(seen));
        assert_eq!(response.body, "onetwo");
        server.join().unwrap();
    }
}
