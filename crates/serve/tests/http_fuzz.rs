//! Fuzz the request path without a socket: arbitrary bytes, and valid
//! requests with a few bytes overwritten, go through the framer, the
//! router and the response writer exactly as the IO driver and a worker
//! would run them. Nothing may panic. A framed request must be answered
//! with a status in 200..=599 behind a well-formed status line. A buffer
//! that can never frame is refused as `Malformed` (400) or `BodyTooLarge`
//! (413), the only two refusals `HttpParseError` has.

use cme_serve::http::{frame_request, write_response, Frame};
use cme_serve::App;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A small body cap, so flipped `Content-Length` digits can exceed it.
const MAX_BODY: usize = 64;

/// One app for every case; repeats of a valid request hit its caches.
fn app() -> &'static App {
    static APP: OnceLock<App> = OnceLock::new();
    APP.get_or_init(|| App::new(1, 64))
}

fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn valid_requests() -> [Vec<u8>; 3] {
    [
        request("GET", "/healthz", ""),
        request("GET", "/metrics", ""),
        request("POST", "/lint", r#"{"nest": {"Kernel": {"name": "T2D", "size": 16}}}"#),
    ]
}

/// `HTTP/1.1 NNN Reason\r\n`, with `NNN` the response's status.
fn well_formed_status_line(wire: &[u8], status: u16) -> bool {
    let Some(end) = wire.windows(2).position(|w| w == b"\r\n") else { return false };
    let Ok(line) = std::str::from_utf8(&wire[..end]) else { return false };
    let Some(rest) = line.strip_prefix("HTTP/1.1 ") else { return false };
    let Some((code, reason)) = rest.split_once(' ') else { return false };
    code.len() == 3
        && code.parse() == Ok(status)
        && !reason.is_empty()
        && reason.chars().all(|c| c == ' ' || c.is_ascii_graphic())
}

/// Drive one connection buffer the way the IO driver does: frame,
/// answer and write each pipelined request until the buffer runs out,
/// stays incomplete, or is refused.
fn serve_buffer(mut buf: &[u8]) -> TestCaseResult {
    while !buf.is_empty() {
        match frame_request(buf, MAX_BODY) {
            Frame::Incomplete | Frame::Bad(_) => break,
            Frame::Ready { req, consumed } => {
                prop_assert!(consumed > 0 && consumed <= buf.len(), "consumed {consumed}");
                let resp = app().handle(&req);
                prop_assert!((200..=599).contains(&resp.status), "status {}", resp.status);
                let mut wire = Vec::new();
                prop_assert!(write_response(&mut wire, &resp, req.keep_alive()).is_ok());
                prop_assert!(
                    well_formed_status_line(&wire, resp.status),
                    "status line {:?}",
                    String::from_utf8_lossy(&wire[..wire.len().min(64)])
                );
                buf = &buf[consumed..];
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..=512)) {
        serve_buffer(&bytes)?;
    }

    #[test]
    fn overwritten_requests_never_panic(
        which in 0usize..3,
        edits in prop::collection::vec((any::<usize>(), any::<u8>(), any::<bool>()), 1..=4),
    ) {
        // Half the overwrites write a digit, so lengths and sizes change
        // value rather than only turning malformed.
        let mut raw = valid_requests()[which].clone();
        for (pos, byte, digit) in edits {
            let len = raw.len();
            raw[pos % len] = if digit { b'0' + byte % 10 } else { byte };
        }
        serve_buffer(&raw)?;
    }
}

#[test]
fn unedited_requests_are_answered_200() {
    for raw in valid_requests() {
        let Frame::Ready { req, consumed } = frame_request(&raw, MAX_BODY) else {
            panic!("valid request did not frame: {}", String::from_utf8_lossy(&raw));
        };
        assert_eq!(consumed, raw.len());
        assert_eq!(app().handle(&req).status, 200, "{}", req.path);
    }
}
