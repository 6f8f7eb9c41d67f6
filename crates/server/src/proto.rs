//! The wire protocol: line-delimited requests, length-delimited replies.
//!
//! The no-network vendor policy rules out HTTP stacks, so the front-end
//! speaks a deliberately minimal text protocol over loopback TCP —
//! small enough to implement exactly, rich enough to carry every page
//! kind plus the operational endpoints a deployable service needs.
//!
//! **Request frame** — one ASCII line, `\n`-terminated, at most
//! [`MAX_LINE`] bytes including the terminator:
//!
//! ```text
//! HELLO <client-id>          bind this connection to a rate-limit principal
//! PAGE <kind> <user> [<arg>] render one page for <user>
//! HEALTH                     liveness/readiness probe
//! METRICS                    latency/status counters, text exposition
//! ADMIN <stats|flush|checkpoint|drain>
//! QUIT                       close the connection politely
//! ```
//!
//! **Response frame** — a status line, then for `OK` exactly `<len>`
//! payload bytes:
//!
//! ```text
//! OK <len>\n<len bytes of payload>
//! ERR <code> <reason>\n
//! ```
//!
//! Error codes follow HTTP semantics so retry behaviour is obvious:
//! `400` malformed, `404` unknown page kind, `408` request read
//! timeout, `409` retryable serialization failure (write conflict /
//! strict-mode lock timeout / commit abort), `413` oversized frame, `429` rate
//! limited, `500` internal, `503` shed or draining. `409`, `429` and
//! `503` are **retryable**: the request was not applied (or is safe to
//! re-issue) and a client should back off and try again.

use std::io::BufRead;

/// Hard ceiling on one request line, terminator included. A connection
/// that exceeds it is answered `ERR 413` and closed — there is no way
/// to resynchronize inside an unbounded line.
pub const MAX_LINE: usize = 1024;

/// Malformed request line (unknown verb, bad arity, non-numeric id).
pub const BAD_REQUEST: u16 = 400;
/// `PAGE` with an unknown page kind.
pub const NOT_FOUND: u16 = 404;
/// The request line did not complete within the read timeout.
pub const TIMEOUT: u16 = 408;
/// Retryable serialization failure: the page's transaction was aborted
/// (first-updater-wins conflict — another writer got to one of its rows
/// first; strict-mode cache-lock timeout; commit-time abort) and left no
/// effects. Retry on a fresh request.
pub const RETRY: u16 = 409;
/// Request frame exceeded [`MAX_LINE`].
pub const TOO_LARGE: u16 = 413;
/// The client's token bucket is empty. Retry after backing off.
pub const RATE_LIMITED: u16 = 429;
/// Page execution failed with a non-retryable database error.
pub const INTERNAL: u16 = 500;
/// Admission control refused the request (queue full / server
/// draining). Nothing was executed; retry against a healthy instance.
pub const SHED: u16 = 503;

/// True for codes a well-behaved client may retry without side effects.
pub fn retryable(code: u16) -> bool {
    matches!(code, RETRY | RATE_LIMITED | SHED)
}

/// The page kinds the front-end serves — the social app's actions
/// (Table 2 of the paper plus the transactional extensions), each
/// mapped to one `SocialApp` entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Page {
    /// Session start (`last_login` write + dashboard).
    Login,
    /// Session end.
    Logout,
    /// Own bookmarks.
    LookupBM,
    /// Friends' bookmarks (join-heavy).
    LookupFBM,
    /// Save a bookmark (`arg` selects the URL).
    CreateBM,
    /// Accept a friend request (`arg` is the fallback peer).
    AcceptFR,
    /// Wall page (Top-K).
    Wall,
    /// Post one wall message (`arg` is the wall owner).
    PostWall,
    /// Multi-statement wall-post transaction (`arg` is the wall owner).
    BatchPost,
    /// Group directory.
    Groups,
    /// Read-only repeat-read transaction reporting its own snapshot
    /// consistency — the protocol-level MVCC probe (`arg` is the number
    /// of filler reads).
    Snapshot,
}

impl Page {
    /// Every page kind, in display order.
    pub fn all() -> [Page; 11] {
        [
            Page::Login,
            Page::Logout,
            Page::LookupBM,
            Page::LookupFBM,
            Page::CreateBM,
            Page::AcceptFR,
            Page::Wall,
            Page::PostWall,
            Page::BatchPost,
            Page::Groups,
            Page::Snapshot,
        ]
    }

    /// The wire name (also the metrics label).
    pub fn name(&self) -> &'static str {
        match self {
            Page::Login => "login",
            Page::Logout => "logout",
            Page::LookupBM => "lookup_bm",
            Page::LookupFBM => "lookup_fbm",
            Page::CreateBM => "create_bm",
            Page::AcceptFR => "accept_fr",
            Page::Wall => "wall",
            Page::PostWall => "post_wall",
            Page::BatchPost => "batch_post",
            Page::Groups => "groups",
            Page::Snapshot => "snapshot",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Page> {
        Page::all().into_iter().find(|p| p.name() == s)
    }

    /// Dense index for per-page metric arrays.
    pub fn index(&self) -> usize {
        Page::all().iter().position(|p| p == self).unwrap_or(0)
    }
}

/// Administrative commands behind the `ADMIN` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminCmd {
    /// One-line operational summary (requests, pool, sheds).
    Stats,
    /// Drain and sync the WAL group-commit queue.
    Flush,
    /// Take a fuzzy checkpoint (durable deployments only).
    Checkpoint,
    /// Enter draining: refuse new connections, finish in-flight work.
    Drain,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Rate-limit principal binding.
    Hello {
        /// Client identity (token-bucket key).
        client: String,
    },
    /// Render a page.
    Page {
        /// Which page.
        kind: Page,
        /// Acting user id.
        user: i64,
        /// Optional page-specific argument.
        arg: Option<i64>,
    },
    /// Health probe.
    Health,
    /// Metrics exposition.
    Metrics,
    /// Administrative command.
    Admin(AdminCmd),
    /// Polite close.
    Quit,
}

/// A protocol-level rejection: code plus a short reason word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// HTTP-style status code.
    pub code: u16,
    /// Single-token reason (no spaces needed; kept short for the wire).
    pub reason: String,
}

impl ProtoError {
    /// Builds an error frame description.
    pub fn new(code: u16, reason: impl Into<String>) -> Self {
        ProtoError {
            code,
            reason: reason.into(),
        }
    }
}

/// Parses one request line (terminator already stripped).
///
/// # Errors
///
/// [`BAD_REQUEST`] for malformed frames, [`NOT_FOUND`] for unknown
/// page kinds.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let mut parts = line.split_ascii_whitespace();
    let verb = parts.next().unwrap_or("");
    let req = match verb {
        "HELLO" => {
            let client = parts
                .next()
                .ok_or_else(|| ProtoError::new(BAD_REQUEST, "missing-client-id"))?;
            Request::Hello {
                client: client.to_owned(),
            }
        }
        "PAGE" => {
            let kind = parts
                .next()
                .ok_or_else(|| ProtoError::new(BAD_REQUEST, "missing-page-kind"))?;
            let kind = Page::parse(kind)
                .ok_or_else(|| ProtoError::new(NOT_FOUND, format!("unknown-page:{kind}")))?;
            let user = parts
                .next()
                .ok_or_else(|| ProtoError::new(BAD_REQUEST, "missing-user"))?;
            let user: i64 = user
                .parse()
                .map_err(|_| ProtoError::new(BAD_REQUEST, "bad-user-id"))?;
            if user <= 0 {
                return Err(ProtoError::new(BAD_REQUEST, "bad-user-id"));
            }
            let arg = match parts.next() {
                Some(a) => Some(
                    a.parse::<i64>()
                        .map_err(|_| ProtoError::new(BAD_REQUEST, "bad-arg"))?,
                ),
                None => None,
            };
            Request::Page { kind, user, arg }
        }
        "HEALTH" => Request::Health,
        "METRICS" => Request::Metrics,
        "ADMIN" => {
            let cmd = parts
                .next()
                .ok_or_else(|| ProtoError::new(BAD_REQUEST, "missing-admin-cmd"))?;
            let cmd = match cmd {
                "stats" => AdminCmd::Stats,
                "flush" => AdminCmd::Flush,
                "checkpoint" => AdminCmd::Checkpoint,
                "drain" => AdminCmd::Drain,
                other => {
                    return Err(ProtoError::new(
                        BAD_REQUEST,
                        format!("unknown-admin-cmd:{other}"),
                    ))
                }
            };
            Request::Admin(cmd)
        }
        "QUIT" => Request::Quit,
        "" => return Err(ProtoError::new(BAD_REQUEST, "empty-line")),
        other => {
            return Err(ProtoError::new(
                BAD_REQUEST,
                format!("unknown-verb:{other}"),
            ))
        }
    };
    if parts.next().is_some() {
        return Err(ProtoError::new(BAD_REQUEST, "trailing-tokens"));
    }
    Ok(req)
}

/// A response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success with a payload.
    Ok(String),
    /// Rejection.
    Err {
        /// HTTP-style status code.
        code: u16,
        /// Reason phrase (single line).
        reason: String,
    },
}

impl Response {
    /// Builds an error response from a [`ProtoError`].
    pub fn err(e: ProtoError) -> Self {
        Response::Err {
            code: e.code,
            reason: e.reason,
        }
    }

    /// The status code (200 for `OK`).
    pub fn code(&self) -> u16 {
        match self {
            Response::Ok(_) => 200,
            Response::Err { code, .. } => *code,
        }
    }

    /// True when a client may safely re-issue the request.
    pub fn is_retryable(&self) -> bool {
        retryable(self.code())
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Ok(payload) => {
                let mut out = format!("OK {}\n", payload.len()).into_bytes();
                out.extend_from_slice(payload.as_bytes());
                out
            }
            Response::Err { code, reason } => {
                let clean: String = reason
                    .chars()
                    .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
                    .collect();
                format!("ERR {code} {clean}\n").into_bytes()
            }
        }
    }
}

/// Reads one response frame from a buffered stream (client side).
///
/// # Errors
///
/// I/O errors, or `InvalidData` when the peer violates the framing.
pub fn read_response(reader: &mut impl BufRead) -> std::io::Result<Response> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        ));
    }
    let line = line.trim_end_matches('\n');
    if let Some(rest) = line.strip_prefix("OK ") {
        let len: usize = rest
            .trim()
            .parse()
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad OK length"))?;
        let mut payload = vec![0u8; len];
        reader.read_exact(&mut payload)?;
        let payload = String::from_utf8(payload).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 payload")
        })?;
        Ok(Response::Ok(payload))
    } else if let Some(rest) = line.strip_prefix("ERR ") {
        let mut parts = rest.splitn(2, ' ');
        let code: u16 =
            parts.next().unwrap_or("").parse().map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad ERR code")
            })?;
        Ok(Response::Err {
            code,
            reason: parts.next().unwrap_or("").to_owned(),
        })
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad status line: {line:?}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_every_page_kind() {
        for p in Page::all() {
            let line = format!("PAGE {} 7", p.name());
            assert_eq!(
                parse_request(&line).unwrap(),
                Request::Page {
                    kind: p,
                    user: 7,
                    arg: None
                }
            );
            assert_eq!(Page::parse(p.name()), Some(p));
        }
        assert_eq!(Page::all().len(), 11);
    }

    #[test]
    fn parses_args_and_verbs() {
        assert_eq!(
            parse_request("PAGE create_bm 3 42").unwrap(),
            Request::Page {
                kind: Page::CreateBM,
                user: 3,
                arg: Some(42)
            }
        );
        assert_eq!(
            parse_request("HELLO client-9").unwrap(),
            Request::Hello {
                client: "client-9".into()
            }
        );
        assert_eq!(parse_request("HEALTH").unwrap(), Request::Health);
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(
            parse_request("ADMIN stats").unwrap(),
            Request::Admin(AdminCmd::Stats)
        );
        assert_eq!(parse_request("QUIT").unwrap(), Request::Quit);
    }

    #[test]
    fn malformed_lines_reject_with_400() {
        for bad in [
            "",
            "NONSENSE",
            "PAGE",
            "PAGE login",
            "PAGE login abc",
            "PAGE login 0",
            "PAGE login -4",
            "PAGE login 1 x",
            "PAGE login 1 2 3",
            "HELLO",
            "ADMIN",
            "ADMIN frob",
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.code, BAD_REQUEST, "{bad:?} -> {e:?}");
        }
    }

    #[test]
    fn unknown_page_rejects_with_404() {
        let e = parse_request("PAGE frobnicate 1").unwrap_err();
        assert_eq!(e.code, NOT_FOUND);
        assert!(e.reason.contains("frobnicate"));
    }

    #[test]
    fn response_roundtrip() {
        for r in [
            Response::Ok("hello payload".into()),
            Response::Ok(String::new()),
            Response::Err {
                code: 429,
                reason: "rate-limited".into(),
            },
        ] {
            let bytes = r.encode();
            let mut reader = BufReader::new(&bytes[..]);
            assert_eq!(read_response(&mut reader).unwrap(), r);
        }
    }

    #[test]
    fn error_reason_newlines_are_flattened() {
        let r = Response::Err {
            code: 500,
            reason: "two\nlines".into(),
        };
        let bytes = r.encode();
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 1);
    }

    #[test]
    fn retryable_codes() {
        assert!(retryable(RETRY));
        assert!(retryable(RATE_LIMITED));
        assert!(retryable(SHED));
        assert!(!retryable(BAD_REQUEST));
        assert!(!retryable(INTERNAL));
        assert!(!retryable(TIMEOUT));
        assert!(Response::Err {
            code: SHED,
            reason: "shed".into()
        }
        .is_retryable());
    }
}
