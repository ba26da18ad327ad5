//! Minimal HTTP/1.1 request parsing and response writing over raw streams.
//!
//! Only what the serving endpoints need, implemented defensively: request
//! line + headers + `Content-Length` bodies (no chunked transfer coding),
//! keep-alive connection reuse, and hard limits on line, header and body
//! sizes so a misbehaving client cannot balloon server memory. Every
//! violation maps to a definite 4xx/5xx status instead of a panic or a hang.

use std::io::{BufRead, Read, Write};
use std::time::Duration;

/// Longest accepted request line or single header line, in bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// Largest accepted request body, in bytes (an `/v1/quantize` payload of a
/// million f32 literals fits comfortably).
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// The connection read-timeout tick: the granularity at which connection
/// threads notice server shutdown between requests. The actual idle-close
/// threshold is `MAX_IDLE_TICKS` of these (see `crate::daemon`), not one.
pub const IDLE_TIMEOUT: Duration = Duration::from_millis(500);

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method ("GET", "POST", …).
    pub method: String,
    /// Path without query string ("/v1/eval").
    pub path: String,
    /// Raw query string without the leading `?` (empty when none was sent).
    pub query: String,
    /// Raw header name/value pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8, or an error suitable for a 400.
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::bad_request("request body is not valid UTF-8"))
    }

    /// First `key=value` query parameter with this name. No percent
    /// decoding — the debug endpoints that use this take plain integers.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value)
    }
}

/// A request-reading failure with the status code it should be answered with
/// (when the connection is still answerable).
#[derive(Debug, Clone)]
pub struct HttpError {
    /// Status code to answer with (400, 405, 413, 431, 501, 505…).
    pub status: u16,
    /// Human-readable explanation, returned in the JSON error body.
    pub message: String,
}

impl HttpError {
    /// A 400 Bad Request.
    pub fn bad_request(message: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }

    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// The outcome of trying to read one request off a kept-alive connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request arrived.
    Request(Request),
    /// The peer closed the connection before sending any byte of a next
    /// request — normal keep-alive termination, not an error.
    Disconnected,
    /// The stream's read timeout elapsed before any byte of a next request —
    /// the connection is still healthy; the caller decides whether to keep
    /// waiting (and can check for server shutdown in between).
    Idle,
    /// The request was malformed or over limits; answer with the error's
    /// status and close the connection.
    Bad(HttpError),
}

/// Reads one request. `Disconnected` is only reported when the connection
/// dies *between* requests; a connection dropping mid-request surfaces as
/// `Bad` (and writing the error response will simply fail, which is fine).
pub fn read_request<R: BufRead>(reader: &mut R) -> ReadOutcome {
    let mut line = Vec::new();
    match read_line(reader, &mut line) {
        LineOutcome::Eof if line.is_empty() => return ReadOutcome::Disconnected,
        LineOutcome::Eof => {
            return ReadOutcome::Bad(HttpError::bad_request("truncated request line"))
        }
        LineOutcome::TimedOut if line.is_empty() => return ReadOutcome::Idle,
        LineOutcome::TimedOut => {
            return ReadOutcome::Bad(HttpError::new(408, "timed out mid-request"))
        }
        LineOutcome::TooLong => {
            return ReadOutcome::Bad(HttpError::new(431, "request line too long"))
        }
        LineOutcome::Line => {}
    }
    let request_line = match std::str::from_utf8(&line) {
        Ok(s) => s,
        Err(_) => return ReadOutcome::Bad(HttpError::bad_request("non-UTF-8 request line")),
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return ReadOutcome::Bad(HttpError::bad_request(format!(
                "malformed request line '{request_line}'"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return ReadOutcome::Bad(HttpError::new(
            505,
            format!("unsupported protocol version '{version}'"),
        ));
    }
    // The query string is split off the path; only the debug endpoints
    // read it (the JSON-bodied API endpoints ignore it).
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target.to_string(), String::new()),
    };
    let method = method.to_ascii_uppercase();

    let mut headers = Vec::new();
    loop {
        line.clear();
        match read_line(reader, &mut line) {
            LineOutcome::Line => {}
            LineOutcome::TooLong => {
                return ReadOutcome::Bad(HttpError::new(431, "header line too long"))
            }
            _ => return ReadOutcome::Bad(HttpError::bad_request("truncated headers")),
        }
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return ReadOutcome::Bad(HttpError::new(431, "too many headers"));
        }
        let text = match std::str::from_utf8(&line) {
            Ok(s) => s,
            Err(_) => return ReadOutcome::Bad(HttpError::bad_request("non-UTF-8 header")),
        };
        match text.split_once(':') {
            Some((name, value)) => {
                // RFC 7230 §3.2.4: whitespace between the field name and the
                // colon must be rejected (400) — a lenient parser upstream
                // that strips or honours such a header disagrees with this
                // one about framing (request-smuggling guard). A leading
                // space would be an obs-fold continuation line; reject too.
                if name.is_empty() || name != name.trim() {
                    return ReadOutcome::Bad(HttpError::bad_request(format!(
                        "whitespace around the header name in '{text}'"
                    )));
                }
                headers.push((name.to_string(), value.trim().to_string()))
            }
            None => {
                return ReadOutcome::Bad(HttpError::bad_request(format!(
                    "malformed header '{text}'"
                )))
            }
        }
    }

    let request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };
    // Like Content-Length below, Transfer-Encoding is checked against every
    // occurrence, not the first match: a second (e.g. `chunked`) copy that a
    // front proxy honours while this server reads the first would desync
    // framing (request-smuggling guard).
    let mut te_seen = false;
    for (name, value) in &request.headers {
        if !name.eq_ignore_ascii_case("transfer-encoding") {
            continue;
        }
        if te_seen {
            return ReadOutcome::Bad(HttpError::bad_request(
                "duplicate Transfer-Encoding headers (request-smuggling guard)",
            ));
        }
        te_seen = true;
        if !value.eq_ignore_ascii_case("identity") {
            return ReadOutcome::Bad(HttpError::new(
                501,
                "chunked transfer coding is not supported; send Content-Length",
            ));
        }
    }
    let content_length = match parse_content_length(&request.headers) {
        Ok(n) => n,
        Err(e) => return ReadOutcome::Bad(e),
    };
    if content_length > MAX_BODY_BYTES {
        return ReadOutcome::Bad(HttpError::new(
            413,
            format!(
                "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            ),
        ));
    }
    let mut request = request;
    if content_length > 0 {
        match read_body_retrying(reader, content_length) {
            Ok(body) => request.body = body,
            Err(e) => {
                return ReadOutcome::Bad(HttpError::bad_request(format!(
                    "failed to read the {content_length}-byte body: {e}"
                )))
            }
        }
    }
    ReadOutcome::Request(request)
}

/// Extracts the request body length from the headers — strictly.
///
/// Request-smuggling guard: when two parsers disagree about where a request
/// body ends, one of them can be fed a hidden second request. So this
/// rejects (400) anything a lenient parser might read differently instead of
/// accepting the first plausible parse:
///
/// * **duplicate** `Content-Length` headers, case-insensitively, even when
///   their values agree — a duplicated header means something upstream
///   already disagreed about framing;
/// * values that are not pure ASCII digits: `+42` (which `usize::from_str`
///   would happily accept), `4 2`, `42,42`, an empty value. Surrounding
///   optional whitespace (` 42`) was already stripped as header OWS and
///   never reaches the digit check.
fn parse_content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut seen: Option<&str> = None;
    for (name, value) in headers {
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        if seen.is_some() {
            return Err(HttpError::bad_request(
                "duplicate Content-Length headers (request-smuggling guard)",
            ));
        }
        seen = Some(value);
    }
    let Some(value) = seen else {
        return Ok(0);
    };
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::bad_request(format!(
            "invalid Content-Length '{value}' (digits only; no signs or whitespace)"
        )));
    }
    value.parse::<usize>().map_err(|_| {
        HttpError::bad_request(format!("Content-Length '{value}' does not fit in usize"))
    })
}

enum LineOutcome {
    Line,
    Eof,
    TimedOut,
    TooLong,
}

/// Reads a CRLF-(or LF-)terminated line, excluding the terminator, bounded
/// by [`MAX_LINE_BYTES`].
fn read_line<R: BufRead>(reader: &mut R, out: &mut Vec<u8>) -> LineOutcome {
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => return LineOutcome::Eof,
            Ok(_) => {
                // olive-lint: allow(no-panic-in-request-path): one-byte stack buffer, index 0 always in bounds
                if byte[0] == b'\n' {
                    if out.last() == Some(&b'\r') {
                        out.pop();
                    }
                    return LineOutcome::Line;
                }
                if out.len() >= MAX_LINE_BYTES {
                    return LineOutcome::TooLong;
                }
                // olive-lint: allow(no-panic-in-request-path): one-byte stack buffer, index 0 always in bounds
                out.push(byte[0]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return LineOutcome::TimedOut
            }
            Err(_) => return LineOutcome::Eof,
        }
    }
}

/// Reads a `len`-byte body, growing the buffer only as bytes actually
/// arrive — the advertised `Content-Length` is untrusted, so preallocating
/// it would let header-only connections pin [`MAX_BODY_BYTES`] each. Keeps
/// going across read-timeout ticks as long as bytes are flowing (a large
/// body legitimately spans several [`IDLE_TIMEOUT`]s); gives up when a full
/// tick passes with no progress.
fn read_body_retrying<R: Read>(reader: &mut R, len: usize) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(len.min(64 * 1024));
    let mut chunk = [0u8; 8 * 1024];
    let mut stalled_once = false;
    while body.len() < len {
        let want = chunk.len().min(len - body.len());
        // olive-lint: allow(no-panic-in-request-path): want is clamped to chunk.len() on the line above
        match reader.read(&mut chunk[..want]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ))
            }
            Ok(n) => {
                // olive-lint: allow(no-panic-in-request-path): Read guarantees n <= the buffer length passed in
                body.extend_from_slice(&chunk[..n]);
                stalled_once = false;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if (e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut)
                    && !stalled_once =>
            {
                stalled_once = true;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(body)
}

/// An outgoing response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (JSON for every API endpoint; `/metrics` is plain text).
    pub body: String,
    /// Extra headers beyond the always-present set (e.g. `Retry-After`).
    pub extra_headers: Vec<(String, String)>,
    /// `Content-Type` value; the framing writer owns the header itself.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            extra_headers: Vec::new(),
            content_type: "application/json",
        }
    }

    /// A plain-text response — the Prometheus exposition content type,
    /// which every text-format scraper accepts.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            extra_headers: Vec::new(),
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// A JSON error body with the uniform shape every endpoint answers
    /// failures with:
    ///
    /// ```json
    /// {"error": "service_unavailable", "detail": "server is shutting down"}
    /// ```
    ///
    /// `error` is a stable machine-matchable slug derived from the status
    /// (the [`reason_phrase`] lowercased with underscores), `detail` the
    /// human-readable specifics. Clients branch on `error` (or the status
    /// line) and log `detail`; the slug set can only grow, never change.
    pub fn error(status: u16, message: &str) -> Self {
        let body = olive_api::JsonValue::object(vec![
            (
                "error",
                olive_api::JsonValue::Str(error_slug(status).to_string()),
            ),
            ("detail", olive_api::JsonValue::Str(message.to_string())),
        ])
        .render();
        Response::json(status, body)
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes the response, honouring `keep_alive` in the `Connection`
    /// header.
    ///
    /// Extra headers whose names collide **case-insensitively** with the
    /// framing set ([`RESERVED_HEADERS`]) are dropped: a handler must never
    /// be able to emit a second `content-length` and desynchronise the
    /// connection.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            if RESERVED_HEADERS
                .iter()
                .any(|reserved| name.eq_ignore_ascii_case(reserved))
            {
                continue;
            }
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        // One write for head+body: two small segments would tickle Nagle +
        // delayed-ACK stalls (tens of ms per response) on loopback.
        head.push_str(&self.body);
        writer.write_all(head.as_bytes())?;
        writer.flush()
    }
}

/// Header names the response writers own; handler-supplied extra headers can
/// never override them (compared case-insensitively on the write path, just
/// as lookups are on the read path).
pub const RESERVED_HEADERS: [&str; 4] = [
    "content-type",
    "content-length",
    "connection",
    "transfer-encoding",
];

/// Writes the head of a chunked (streaming) response: status line, framing
/// headers with `Transfer-Encoding: chunked`, and the blank line. Follow
/// with [`write_chunk`] calls and one [`write_last_chunk`].
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_chunked_head<W: Write>(
    writer: &mut W,
    status: u16,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_chunked_head_with(writer, status, keep_alive, &[])
}

/// [`write_chunked_head`] with extra non-framing headers (e.g. the
/// `x-olive-trace` correlation id). Names colliding case-insensitively
/// with [`RESERVED_HEADERS`] are dropped, exactly as in
/// [`Response::write_to`].
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_chunked_head_with<W: Write>(
    writer: &mut W,
    status: u16,
    keep_alive: bool,
    extra_headers: &[(String, String)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n",
        status,
        reason_phrase(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        if RESERVED_HEADERS
            .iter()
            .any(|reserved| name.eq_ignore_ascii_case(reserved))
        {
            continue;
        }
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.flush()
}

/// Writes one chunk (size line + data + CRLF) in a single syscall and
/// flushes, so each streamed token fragment hits the wire immediately.
/// Empty data is a no-op: a zero-length chunk would terminate the stream
/// ([`write_last_chunk`] owns that).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_chunk<W: Write>(writer: &mut W, data: &str) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    let mut frame = format!("{:x}\r\n", data.len());
    frame.push_str(data);
    frame.push_str("\r\n");
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

/// Terminates a chunked response (`0\r\n\r\n`), preserving keep-alive
/// framing for the next request on the connection.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_last_chunk<W: Write>(writer: &mut W) -> std::io::Result<()> {
    writer.write_all(b"0\r\n\r\n")?;
    writer.flush()
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// The machine-matchable `error` slug for a status: the reason phrase,
/// lowercased with underscores (`503` → `"service_unavailable"`). Part of
/// the wire contract — see [`Response::error`].
pub fn error_slug(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        403 => "forbidden",
        404 => "not_found",
        405 => "method_not_allowed",
        408 => "request_timeout",
        413 => "payload_too_large",
        431 => "request_header_fields_too_large",
        500 => "internal_server_error",
        501 => "not_implemented",
        503 => "service_unavailable",
        505 => "http_version_not_supported",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read(raw: &str) -> ReadOutcome {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_request() {
        let outcome = read("GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n");
        let ReadOutcome::Request(req) = outcome else {
            panic!("expected a request, got {outcome:?}");
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.query, "verbose=1");
        assert_eq!(req.query_param("verbose"), Some("1"));
        assert_eq!(req.query_param("nope"), None);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.keep_alive());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body_and_connection_close() {
        let outcome = read(
            "POST /v1/eval HTTP/1.1\r\nContent-Length: 7\r\nConnection: close\r\n\r\n{\"a\":1}",
        );
        let ReadOutcome::Request(req) = outcome else {
            panic!("expected a request");
        };
        assert_eq!(req.body_utf8().unwrap(), "{\"a\":1}");
        assert!(!req.keep_alive());
    }

    #[test]
    fn eof_before_any_byte_is_a_clean_disconnect() {
        assert!(matches!(read(""), ReadOutcome::Disconnected));
    }

    #[test]
    fn truncated_requests_are_bad() {
        for raw in [
            "GET /x HTTP/1.1",                                     // no terminator at all
            "GET /x HTTP/1.1\r\nHost: x",                          // headers never finish
            "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort", // body short
        ] {
            let outcome = read(raw);
            assert!(
                matches!(outcome, ReadOutcome::Bad(_)),
                "{raw:?}: {outcome:?}"
            );
        }
    }

    #[test]
    fn rejects_protocol_violations_with_specific_statuses() {
        let cases = [
            ("FLY /x\r\n\r\n", 400),                        // two-token request line
            ("GET /x HTTP/2\r\n\r\n", 505),                 // wrong version
            ("GET /x HTTP/1.1\r\nbad header\r\n\r\n", 400), // colon-free header
            ("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            ),
        ];
        for (raw, status) in cases {
            match read(raw) {
                ReadOutcome::Bad(e) => assert_eq!(e.status, status, "{raw:?}: {}", e.message),
                other => panic!("{raw:?}: expected Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn enforces_size_limits() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_LINE_BYTES + 10));
        match read(&long_line) {
            ReadOutcome::Bad(e) => assert_eq!(e.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
        let huge_body = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match read(&huge_body) {
            ReadOutcome::Bad(e) => assert_eq!(e.status, 413),
            other => panic!("expected 413, got {other:?}"),
        }
        let mut many_headers = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 2) {
            many_headers.push_str(&format!("H{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        match read(&many_headers) {
            ReadOutcome::Bad(e) => assert_eq!(e.status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn content_length_smuggling_vectors_are_rejected() {
        // Duplicate Content-Length headers — identical, differing, and
        // differing only in name case — all close with a 400.
        for raw in [
            "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok",
            "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nok",
            "POST /x HTTP/1.1\r\ncontent-length: 2\r\nCONTENT-LENGTH: 5\r\n\r\nok",
        ] {
            match read(raw) {
                ReadOutcome::Bad(e) => {
                    assert_eq!(e.status, 400, "{raw:?}");
                    assert!(e.message.contains("duplicate"), "{raw:?}: {}", e.message);
                }
                other => panic!("{raw:?}: expected Bad, got {other:?}"),
            }
        }
        // Values with signs, inner whitespace, separators or nothing at all
        // must not reach a lenient integer parse.
        for value in ["+42", "-1", "4 2", "42,42", "", "0x10", "42."] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
            match read(&raw) {
                ReadOutcome::Bad(e) => assert_eq!(e.status, 400, "CL {value:?}: {}", e.message),
                other => panic!("CL {value:?}: expected Bad, got {other:?}"),
            }
        }
        // A single well-formed header still works regardless of name case
        // and optional whitespace after the colon (standard header OWS).
        let outcome = read("POST /x HTTP/1.1\r\ncOnTeNt-LeNgTh:   2  \r\n\r\nhi");
        let ReadOutcome::Request(req) = outcome else {
            panic!("mixed-case Content-Length must parse, got {outcome:?}");
        };
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn transfer_encoding_smuggling_vectors_are_rejected() {
        // A duplicated Transfer-Encoding must never be resolved by taking
        // the first match: a proxy honouring the second copy would frame
        // the body differently.
        for raw in [
            "POST /x HTTP/1.1\r\nTransfer-Encoding: identity\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\nhi",
            "POST /x HTTP/1.1\r\ntransfer-encoding: identity\r\nTRANSFER-ENCODING: identity\r\n\r\n",
        ] {
            match read(raw) {
                ReadOutcome::Bad(e) => {
                    assert_eq!(e.status, 400, "{raw:?}: {}", e.message);
                    assert!(e.message.contains("duplicate"), "{raw:?}: {}", e.message);
                }
                other => panic!("{raw:?}: expected Bad, got {other:?}"),
            }
        }
        // A combined coding list in one header is still unsupported (501).
        match read("POST /x HTTP/1.1\r\nTransfer-Encoding: identity, chunked\r\n\r\n") {
            ReadOutcome::Bad(e) => assert_eq!(e.status, 501, "{}", e.message),
            other => panic!("expected 501, got {other:?}"),
        }
    }

    #[test]
    fn whitespace_around_header_names_is_rejected() {
        // RFC 7230 §3.2.4: whitespace before the colon is a 400 (and a
        // leading space would be an obs-fold continuation) — both are
        // parser-disagreement (smuggling) vectors.
        for raw in [
            "POST /x HTTP/1.1\r\nContent-Length : 2\r\n\r\nhi",
            "GET /x HTTP/1.1\r\n Host: a\r\n\r\n",
            "GET /x HTTP/1.1\r\n: novalue\r\n\r\n",
        ] {
            match read(raw) {
                ReadOutcome::Bad(e) => assert_eq!(e.status, 400, "{raw:?}: {}", e.message),
                other => panic!("{raw:?}: expected Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn query_strings_split_off_the_path() {
        let ReadOutcome::Request(req) = read("GET /debug/trace?n=5&full=no HTTP/1.1\r\n\r\n")
        else {
            panic!("expected a request");
        };
        assert_eq!(req.path, "/debug/trace");
        assert_eq!(req.query_param("n"), Some("5"));
        assert_eq!(req.query_param("full"), Some("no"));

        let ReadOutcome::Request(req) = read("GET /healthz HTTP/1.1\r\n\r\n") else {
            panic!("expected a request");
        };
        assert_eq!(req.query, "");
        assert_eq!(req.query_param("n"), None);
    }

    #[test]
    fn text_responses_carry_the_exposition_content_type() {
        let mut out = Vec::new();
        Response::text(200, "olive_up 1\n")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("Content-Type: text/plain; version=0.0.4\r\n"),
            "{text}"
        );
        assert!(text.ends_with("\r\n\r\nolive_up 1\n"), "{text}");
        // JSON stays the default for everything else.
        let mut out = Vec::new();
        Response::json(200, "{}").write_to(&mut out, true).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Content-Type: application/json\r\n"));
    }

    #[test]
    fn chunked_head_extra_headers_are_emitted_but_framing_is_reserved() {
        let mut out = Vec::new();
        write_chunked_head_with(
            &mut out,
            200,
            true,
            &[
                ("x-olive-trace".to_string(), "00ff".to_string()),
                ("Transfer-Encoding".to_string(), "identity".to_string()),
            ],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("x-olive-trace: 00ff\r\n"), "{text}");
        assert_eq!(text.matches("Transfer-Encoding").count(), 1, "{text}");
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
    }

    #[test]
    fn reserved_extra_headers_cannot_override_framing() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("Content-LENGTH", "9999")
            .with_header("transfer-encoding", "chunked")
            .with_header("X-Custom", "kept")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(!text.contains("9999"), "{text}");
        assert!(!text.to_ascii_lowercase().contains("chunked"), "{text}");
        assert!(text.contains("X-Custom: kept\r\n"), "{text}");
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200, true).unwrap();
        write_chunk(&mut out, "{\"a\":").unwrap();
        write_chunk(&mut out, "").unwrap(); // no-op, must not terminate
        write_chunk(&mut out, " 1}").unwrap();
        write_last_chunk(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(
            text.ends_with("5\r\n{\"a\":\r\n3\r\n 1}\r\n0\r\n\r\n"),
            "{text}"
        );
    }

    #[test]
    fn keep_alive_connections_yield_sequential_requests() {
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let ReadOutcome::Request(a) = read_request(&mut reader) else {
            panic!("first request");
        };
        let ReadOutcome::Request(b) = read_request(&mut reader) else {
            panic!("second request");
        };
        assert_eq!((a.path.as_str(), b.path.as_str()), ("/a", "/b"));
        assert!(a.keep_alive() && !b.keep_alive());
        assert!(matches!(
            read_request(&mut reader),
            ReadOutcome::Disconnected
        ));
    }

    #[test]
    fn responses_serialize_with_required_headers() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("Retry-After", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");

        let mut out = Vec::new();
        Response::error(503, "queue full")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("503 Service Unavailable"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
        assert!(
            text.contains("\"error\": \"service_unavailable\""),
            "{text}"
        );
        assert!(text.contains("\"detail\": \"queue full\""), "{text}");
    }

    #[test]
    fn error_bodies_have_the_uniform_slug_detail_shape() {
        // The exact bytes are the wire contract: a stable status slug in
        // "error", the human-readable message in "detail", in that order.
        let body = Response::error(400, "unknown field 'batchs'").body;
        assert_eq!(
            body,
            "{\n  \"error\": \"bad_request\",\n  \"detail\": \"unknown field 'batchs'\"\n}\n"
        );
        for (status, slug) in [
            (400, "bad_request"),
            (403, "forbidden"),
            (404, "not_found"),
            (405, "method_not_allowed"),
            (408, "request_timeout"),
            (413, "payload_too_large"),
            (431, "request_header_fields_too_large"),
            (500, "internal_server_error"),
            (501, "not_implemented"),
            (503, "service_unavailable"),
            (505, "http_version_not_supported"),
            (599, "unknown"),
        ] {
            assert_eq!(error_slug(status), slug);
            let response = Response::error(status, "x");
            assert_eq!(response.status, status);
            assert!(response.body.contains(slug), "{}", response.body);
        }
    }
}
