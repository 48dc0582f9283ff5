//! HTTP/1.1 framing of byte buffers and response writing over any
//! `Write` — no sockets in this module, so the framer and writer are
//! unit-testable on byte buffers.
//!
//! Supports exactly what the service needs: request line + headers +
//! `Content-Length` bodies (transfer encodings are rejected), hard caps
//! on header and body size, and HTTP/1.0 / 1.1 keep-alive semantics.

use std::io::Write;

/// Total bytes allowed for the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    pub method: String,
    /// Path as sent; no route uses query strings, so they are not split.
    pub path: String,
    /// True for `HTTP/1.1`, false for `HTTP/1.0`.
    pub http11: bool,
    /// Header pairs; names are lower-cased at parse time.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Look up a header by (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an explicit
    /// `Connection` header overrides either.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(c) if c.contains("close") => false,
            Some(c) if c.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why buffered bytes can never frame a request.
#[derive(Debug)]
pub enum HttpParseError {
    /// Structurally invalid request — the response is a 400.
    Malformed(String),
    /// Declared body above the configured cap — the response is a 413.
    /// The body is *not* read, so a hostile `Content-Length` cannot make
    /// the server buffer it.
    BodyTooLarge { declared: usize, cap: usize },
}

/// Split the next line (CRLF- or LF-terminated, ending stripped) off the
/// front of `head`, charging its bytes against the shared head budget: a
/// line that would take the head past `MAX_HEAD_BYTES` is refused.
fn next_line<'a>(head: &mut &'a [u8], head_bytes: &mut usize) -> Result<&'a str, HttpParseError> {
    let window = &head[..head.len().min(MAX_HEAD_BYTES + 1 - *head_bytes)];
    let len = window.iter().position(|&b| b == b'\n').map_or(window.len(), |k| k + 1);
    let (line, rest) = head.split_at(len);
    *head = rest;
    *head_bytes += len;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(HttpParseError::Malformed(format!(
            "request head exceeds {MAX_HEAD_BYTES} bytes"
        )));
    }
    let end = line.iter().rposition(|&b| !matches!(b, b'\n' | b'\r')).map_or(0, |k| k + 1);
    std::str::from_utf8(&line[..end])
        .map_err(|_| HttpParseError::Malformed("non-UTF-8 request head".into()))
}

/// Parse the request line and headers of a complete head (no body) and
/// validate the body declaration; returns the body-less request plus the
/// declared `Content-Length`.
fn parse_head(mut head: &[u8], max_body: usize) -> Result<(HttpRequest, usize), HttpParseError> {
    let mut head_bytes = 0usize;
    let request_line = next_line(&mut head, &mut head_bytes)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpParseError::Malformed(format!("bad request line `{request_line}`")));
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpParseError::Malformed(format!("unsupported version `{other}`")));
        }
    };

    let mut headers = Vec::new();
    loop {
        let line = next_line(&mut head, &mut head_bytes)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpParseError::Malformed(format!("header without `:`: `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let req = HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        http11,
        headers,
        body: Vec::new(),
    };
    if req.header("transfer-encoding").is_some() {
        return Err(HttpParseError::Malformed(
            "transfer encodings are not supported; send a Content-Length body".into(),
        ));
    }
    let declared = match req.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpParseError::Malformed(format!("bad Content-Length `{v}`")))?,
    };
    if declared > max_body {
        return Err(HttpParseError::BodyTooLarge { declared, cap: max_body });
    }
    Ok((req, declared))
}

/// What [`frame_request`] found at the front of a connection buffer.
#[derive(Debug)]
pub enum Frame {
    /// Not enough bytes yet for a full request — keep reading.
    Incomplete,
    /// One complete request, occupying the first `consumed` buffer bytes
    /// (any remainder is the next pipelined request).
    Ready { req: HttpRequest, consumed: usize },
    /// The bytes can never become a valid request; answer and close.
    Bad(HttpParseError),
}

/// Index just past the head terminator (`\r\n\r\n`, or the bare `\n\n`
/// the line splitter also tolerates), if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    // A lone `\n\n` is two bytes, so scanning windows of two finds both
    // forms; `\r\n\r\n` is recognised as the `\n` at its end preceded by
    // `\r\n` or `\n`.
    let mut k = 0;
    while k < buf.len() {
        if buf[k] == b'\n' {
            let rest = &buf[k + 1..];
            if rest.first() == Some(&b'\n') {
                return Some(k + 2);
            }
            if rest.len() >= 2 && rest[0] == b'\r' && rest[1] == b'\n' {
                return Some(k + 3);
            }
        }
        k += 1;
    }
    None
}

/// Try to frame one complete request from the front of `buf`. The
/// readiness core's IO driver accumulates bytes as they arrive and calls
/// this after every read, so no thread ever *waits* on a slow peer;
/// `max_body` caps the accepted `Content-Length`.
pub fn frame_request(buf: &[u8], max_body: usize) -> Frame {
    let Some(head_end) = find_head_end(buf) else {
        // No terminator yet. A head that already exceeds the cap can
        // never become valid — refuse now rather than buffering more.
        if buf.len() > MAX_HEAD_BYTES {
            return Frame::Bad(HttpParseError::Malformed(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        return Frame::Incomplete;
    };
    let (req, declared) = match parse_head(&buf[..head_end], max_body) {
        Ok(parsed) => parsed,
        Err(e) => return Frame::Bad(e),
    };
    let body_end = head_end + declared;
    if buf.len() < body_end {
        return Frame::Incomplete;
    }
    let req = HttpRequest { body: buf[head_end..body_end].to_vec(), ..req };
    Frame::Ready { req, consumed: body_end }
}

/// A response ready for the wire. Every route answers JSON, so the
/// content type is fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    pub status: u16,
    pub body: String,
}

impl HttpResponse {
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        HttpResponse { status, body: body.into() }
    }

    /// An error body: `{"error": <JSON-escaped message>}`. Escaping is
    /// done by hand: the error path must be infallible — it cannot
    /// panic, and it cannot depend on a serialiser succeeding.
    pub fn error(status: u16, message: &str) -> Self {
        HttpResponse { status, body: format!("{{\"error\":{}}}", json_escape(message)) }
    }
}

/// Quote `s` as a JSON string literal (RFC 8259 §7: escape the quote,
/// the backslash and all control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialise a response, with the `Connection` header reflecting whether
/// the server will keep the stream open. Head and body go out in one
/// write: under `TCP_NODELAY` each write is a segment of its own.
pub fn write_response<W: Write>(
    w: &mut W,
    resp: &HttpResponse,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(resp.body.len() + 128);
    write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        resp.status,
        status_reason(resp.status),
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )?;
    wire.extend_from_slice(resp.body.as_bytes());
    w.write_all(&wire)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frame `bytes`, which must hold at least one complete request or
    /// bytes that can never become one.
    fn parse(bytes: &[u8]) -> Result<HttpRequest, HttpParseError> {
        match frame_request(bytes, 1024) {
            Frame::Ready { req, .. } => Ok(req),
            Frame::Bad(e) => Err(e),
            Frame::Incomplete => panic!("{:?} is incomplete", String::from_utf8_lossy(bytes)),
        }
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_post_with_body_and_case_insensitive_headers() {
        let req = parse(b"POST /optimize HTTP/1.1\r\ncontent-LENGTH: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let k = |raw: &[u8]| parse(raw).unwrap().keep_alive();
        assert!(k(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!k(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(!k(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(k(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
    }

    #[test]
    fn two_pipelined_requests_parse_from_one_stream() {
        let raw: &[u8] = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\n";
        let Frame::Ready { req: a, consumed } = frame_request(raw, 1024) else {
            panic!("first request must frame");
        };
        assert_eq!((a.path.as_str(), a.body.as_slice()), ("/a", b"hi".as_slice()));
        let rest = &raw[consumed..];
        let Frame::Ready { req: b, consumed } = frame_request(rest, 1024) else {
            panic!("second request must frame");
        };
        assert_eq!(b.path, "/b");
        assert!(matches!(frame_request(&rest[consumed..], 1024), Frame::Incomplete));
    }

    #[test]
    fn malformed_request_line_is_rejected() {
        assert!(matches!(
            parse(b"NOT A VALID REQUEST LINE\r\n\r\n"),
            Err(HttpParseError::Malformed(_))
        ));
        assert!(matches!(parse(b"GET /\r\n\r\n"), Err(HttpParseError::Malformed(_))));
        assert!(matches!(parse(b"GET / HTTP/2\r\n\r\n"), Err(HttpParseError::Malformed(_))));
    }

    #[test]
    fn oversized_body_is_refused_without_reading_it() {
        // Declared 9999 > cap 1024, and the body bytes are absent — the
        // parser must refuse on the declaration alone.
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        match err {
            HttpParseError::BodyTooLarge { declared, cap } => {
                assert_eq!((declared, cap), (9999, 1024));
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_incomplete_and_bad_length_malformed() {
        // The rest of the body may still arrive.
        assert!(matches!(
            frame_request(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 1024),
            Frame::Incomplete
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(HttpParseError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(
            std::iter::repeat_n(b"X-Filler: aaaaaaaaaaaaaaaaaaaa\r\n".as_slice(), 600).flatten(),
        );
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&raw), Err(HttpParseError::Malformed(_))));
    }

    #[test]
    fn newline_free_flood_is_rejected_without_buffering_it() {
        // A request line with no terminator must fail at the head cap,
        // so the driver never buffers more of the peer's stream than
        // that: up to the cap the head may still complete, one byte past
        // it the buffer is refused.
        let mut flood = vec![b'a'; MAX_HEAD_BYTES];
        assert!(matches!(frame_request(&flood, 1024), Frame::Incomplete));
        flood.push(b'a');
        assert!(matches!(frame_request(&flood, 1024), Frame::Bad(HttpParseError::Malformed(_))));
    }

    #[test]
    fn response_wire_format_round_trips() {
        let mut out = Vec::new();
        write_response(&mut out, &HttpResponse::json(200, "{\"ok\":true}"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let mut out = Vec::new();
        write_response(&mut out, &HttpResponse::error(503, "queue full"), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
    }

    #[test]
    fn a_response_is_one_write() {
        /// Accepts everything, counting the calls.
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let body = "x".repeat(5000);
        for (resp, keep_alive) in
            [(HttpResponse::json(200, body), true), (HttpResponse::error(404, "no"), false)]
        {
            let mut w = Counting { writes: 0, bytes: Vec::new() };
            write_response(&mut w, &resp, keep_alive).unwrap();
            assert_eq!(w.writes, 1, "head and body in one write");
            assert!(w.bytes.ends_with(resp.body.as_bytes()));
        }
    }

    #[test]
    fn error_bodies_are_valid_json_for_any_message() {
        // The hand escaper must agree with a real JSON parser on quotes,
        // backslashes, newlines and raw control characters.
        for msg in ["plain", "with \"quotes\"", "back\\slash", "line\nbreak\ttab", "ctrl\u{1}end"] {
            let resp = HttpResponse::error(400, msg);
            let parsed: serde::Value = serde_json::from_str(&resp.body)
                .unwrap_or_else(|e| panic!("body {:?} must parse: {e}", resp.body));
            assert_eq!(parsed.get("error").and_then(serde::Value::as_str), Some(msg));
        }
    }

    #[test]
    fn frame_grows_byte_by_byte_then_yields_one_request() {
        let wire = b"POST /optimize HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..wire.len() {
            assert!(
                matches!(frame_request(&wire[..cut], 1024), Frame::Incomplete),
                "prefix of {cut} bytes must be Incomplete"
            );
        }
        match frame_request(wire, 1024) {
            Frame::Ready { req, consumed } => {
                assert_eq!(req.path, "/optimize");
                assert_eq!(req.body, b"body");
                assert_eq!(consumed, wire.len());
            }
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn frame_leaves_pipelined_bytes_for_the_next_request() {
        let wire =
            b"POST /lint HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n\r\n";
        let Frame::Ready { req, consumed } = frame_request(wire, 1024) else {
            panic!("first request must frame");
        };
        assert_eq!(req.path, "/lint");
        assert_eq!(req.body, b"hi");
        let Frame::Ready { req: second, consumed: c2 } = frame_request(&wire[consumed..], 1024)
        else {
            panic!("pipelined request must frame from the remainder");
        };
        assert_eq!(second.path, "/healthz");
        assert_eq!(consumed + c2, wire.len());
    }

    #[test]
    fn frame_tolerates_bare_lf_terminators() {
        let Frame::Ready { req, .. } = frame_request(b"GET /healthz HTTP/1.1\n\n", 1024) else {
            panic!("bare-LF head must frame");
        };
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn frame_rejects_bad_heads_and_oversized_bodies() {
        assert!(matches!(
            frame_request(b"NOT HTTP\r\n\r\n", 1024),
            Frame::Bad(HttpParseError::Malformed(_))
        ));
        assert!(matches!(
            frame_request(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n", 1024),
            Frame::Bad(HttpParseError::BodyTooLarge { declared: 9999, cap: 1024 })
        ));
        // A terminator-free flood past the head cap can never become
        // valid; the framer refuses instead of buffering forever.
        let flood = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(matches!(frame_request(&flood, 1024), Frame::Bad(HttpParseError::Malformed(_))));
    }
}
