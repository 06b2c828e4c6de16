//! Minimal HTTP/1.1 framing over blocking streams: request parsing with
//! hard resource caps, and response writing.
//!
//! This is deliberately a small subset of the protocol — `GET`/`POST`,
//! `Content-Length` bodies only (no chunked transfer), keep-alive — because
//! every feature is attack surface on a daemon that accepts untrusted
//! input. The caps are enforced *before* allocation: a `Content-Length`
//! over the body limit is rejected without reading a single body byte, and
//! header bytes are counted as they stream in.

use std::io::{self, BufRead, Write};

/// Cap on the combined request-line + header bytes of one request.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Method token exactly as the client sent it. HTTP methods are
    /// case-sensitive (RFC 9110 §9.1), so routing matches the uppercase
    /// names only; a nonconforming lowercase `get` earns a `405`/`404`.
    pub method: String,
    /// Path component of the request target (before any `?`).
    pub path: String,
    /// Raw query string (after `?`), if any.
    pub query: Option<String>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked for the connection to close after this
    /// request (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
}

/// Why a request could not be read. Each protocol variant maps to one HTTP
/// status; `Io` means the connection itself died (no response possible).
#[derive(Debug)]
pub enum RequestError {
    /// Grammar violation → `400`.
    Malformed(String),
    /// Body-carrying method without `Content-Length` → `411`.
    LengthRequired,
    /// Declared body larger than the configured cap → `413`.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The enforced cap.
        limit: usize,
    },
    /// Request line + headers exceeded [`MAX_HEAD_BYTES`] → `431`.
    HeadTooLarge,
    /// Transport failure or torn read; the connection is simply dropped.
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// Read one line (through `\n`), charging its bytes against `remaining`.
/// Returns `Ok(None)` on clean EOF at a line start.
fn read_line(
    reader: &mut dyn BufRead,
    remaining: &mut usize,
) -> Result<Option<String>, RequestError> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(RequestError::Malformed("truncated request head".into()));
        }
        let take = match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => nl + 1,
            None => buf.len(),
        };
        if take > *remaining {
            return Err(RequestError::HeadTooLarge);
        }
        *remaining -= take;
        let done = buf[take - 1] == b'\n';
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if done {
            break;
        }
    }
    while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| RequestError::Malformed("request head is not valid UTF-8".into()))
}

/// Read one request off `reader`. `Ok(None)` means the peer closed the
/// connection cleanly between requests (the normal end of keep-alive).
pub fn read_request(
    reader: &mut dyn BufRead,
    max_body_bytes: usize,
) -> Result<Option<Request>, RequestError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let Some(request_line) = read_line(reader, &mut head_budget)? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(RequestError::Malformed(format!(
                "unsupported protocol {other:?}"
            )))
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
        None => (target.to_owned(), None),
    };

    let mut content_length: Option<usize> = None;
    let mut close = !http11;
    loop {
        let Some(line) = read_line(reader, &mut head_budget)? else {
            return Err(RequestError::Malformed("truncated request head".into()));
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!("bad header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                // Two Content-Length headers mean the peer and any proxy in
                // front of us may disagree about where the body ends — a
                // request-smuggling primitive, not a recoverable ambiguity.
                if content_length.is_some() {
                    return Err(RequestError::Malformed(
                        "duplicate content-length header".into(),
                    ));
                }
                let n: usize = value.parse().map_err(|_| {
                    RequestError::Malformed(format!("bad content-length {value:?}"))
                })?;
                content_length = Some(n);
            }
            "transfer-encoding" => {
                // Chunked bodies would defeat the pre-read size cap.
                return Err(RequestError::Malformed(
                    "transfer-encoding is not supported; send content-length".into(),
                ));
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    close = true;
                } else if v.contains("keep-alive") {
                    close = false;
                }
            }
            _ => {}
        }
    }

    let body = match content_length {
        Some(declared) => {
            if declared > max_body_bytes {
                return Err(RequestError::BodyTooLarge {
                    declared,
                    limit: max_body_bytes,
                });
            }
            let mut body = vec![0u8; declared];
            reader.read_exact(&mut body)?;
            body
        }
        None if method == "POST" || method == "PUT" => {
            return Err(RequestError::LengthRequired);
        }
        None => Vec::new(),
    };

    Ok(Some(Request {
        method: method.to_owned(),
        path,
        query,
        body,
        close,
    }))
}

/// One response to be written back.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Optional `Retry-After` header (seconds), for `429`s.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// Attach a `Retry-After` header.
    pub fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }
}

/// Standard reason phrase for the status codes the daemon produces.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Serialize `response` onto `stream`. `close` controls the `Connection`
/// header (and must match what the caller then does with the stream).
pub fn write_response(stream: &mut dyn Write, response: &Response, close: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
    );
    if let Some(seconds) = response.retry_after {
        head.push_str(&format!("retry-after: {seconds}\r\n"));
    }
    head.push_str(if close {
        "connection: close\r\n\r\n"
    } else {
        "connection: keep-alive\r\n\r\n"
    });
    // One write: a client sees the whole reply or none of it, even when the
    // process exits right after (as a drained daemon does).
    let mut reply = head.into_bytes();
    reply.extend_from_slice(&response.body);
    stream.write_all(&reply)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str, max_body: usize) -> Result<Option<Request>, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()), max_body)
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(
            "GET /v1/jobs/7/progress?from=3 HTTP/1.1\r\nHost: x\r\n\r\n",
            64,
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/jobs/7/progress");
        assert_eq!(req.query.as_deref(), Some("from=3"));
        assert!(req.body.is_empty());
        assert!(!req.close);
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            "POST /v1/analyze HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
            64,
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("", 64).unwrap().is_none());
    }

    #[test]
    fn oversized_body_is_rejected_before_reading() {
        // Only the head is present: the cap must trip on the declared
        // length, not on actually receiving the bytes.
        let err = parse(
            "POST /v1/analyze HTTP/1.1\r\nContent-Length: 999\r\n\r\n",
            64,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RequestError::BodyTooLarge {
                declared: 999,
                limit: 64
            }
        ));
    }

    #[test]
    fn post_without_length_is_length_required() {
        let err = parse("POST /v1/analyze HTTP/1.1\r\n\r\n", 64).unwrap_err();
        assert!(matches!(err, RequestError::LengthRequired));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Filler: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(
            parse(&raw, 64).unwrap_err(),
            RequestError::HeadTooLarge
        ));
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        // Identical or conflicting values both go: last-one-wins parsing
        // behind a first-one-wins proxy is a smuggling vector.
        for raw in [
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
        ] {
            assert!(
                matches!(parse(raw, 64), Err(RequestError::Malformed(_))),
                "accepted {raw:?}"
            );
        }
    }

    #[test]
    fn chunked_bodies_are_rejected() {
        let err = parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 64).unwrap_err();
        assert!(matches!(err, RequestError::Malformed(_)));
    }

    #[test]
    fn connection_close_and_http10_defaults() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 64)
            .unwrap()
            .unwrap();
        assert!(req.close);
        let req = parse("GET / HTTP/1.0\r\n\r\n", 64).unwrap().unwrap();
        assert!(req.close);
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 64)
            .unwrap()
            .unwrap();
        assert!(!req.close);
    }

    #[test]
    fn malformed_request_lines_error() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/2.0\r\n\r\n",
            " / HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw, 64), Err(RequestError::Malformed(_))),
                "accepted {raw:?}"
            );
        }
    }

    #[test]
    fn response_serialization_includes_retry_after() {
        let mut out = Vec::new();
        let resp = Response::json(429, "{}".into()).with_retry_after(2);
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
