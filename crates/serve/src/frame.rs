//! Newline framing, both directions: the one implementation of bytes →
//! frames that stdio, Unix and TCP all drive, so a frame is split,
//! decoded and bounded identically whichever way it arrived, and the one
//! function ([`write_response`]) through which every answer leaves.
//!
//! The framer is byte-oriented rather than `BufRead::lines`-based,
//! because a peer is allowed to be hostile:
//!
//! - **Byte-level max-frame enforcement.** A newline-less stream is cut
//!   off at `max_frame_bytes` *while buffering* — one `AN0702` line,
//!   then everything up to the next newline is discarded and the
//!   transport continues. The parser-level check still guards complete
//!   lines; this one guards the buffer itself.
//! - **Non-UTF-8 bytes** are decoded lossily, never fatally: the frame
//!   fails to parse (`AN0701`) and the next one is served.

use crate::core::{Server, Submit};
use crate::diag::ServeCode;
use std::io::{self, Write};
use std::sync::mpsc::Sender;

/// Writes one response line to a transport — the only code in the
/// crate that does; the flush is for buffered writers (stdout), sockets
/// ignore it. `writeln!` hands an unbuffered stream the line and its
/// newline as two writes, as the three sites this replaced did, and
/// over TCP the one-byte second segment waits out Nagle and the peer's
/// delayed ACK: ~44 ms a round trip. Pushing the newline onto the line
/// and issuing one `write_all` removes that, and is deliberately not
/// done here — DESIGN.md §16, "Known stall", says what holds it back.
pub(crate) fn write_response<W: Write>(transport: &mut W, line: &str) -> io::Result<()> {
    writeln!(transport, "{line}")?;
    transport.flush()
}

/// The bytes of the frame being received, and whether they are the tail
/// of an already-rejected oversize frame.
pub(crate) struct Framer<'a> {
    server: &'a Server,
    buf: Vec<u8>,
    discarding: bool,
}

impl<'a> Framer<'a> {
    pub(crate) fn new(server: &'a Server) -> Framer<'a> {
        Framer {
            server,
            buf: Vec::new(),
            discarding: false,
        }
    }

    /// Whether an unfinished frame (or the undiscarded tail of a
    /// rejected one) is pending.
    pub(crate) fn mid_frame(&self) -> bool {
        self.discarding || !self.buf.is_empty()
    }

    /// Takes the bytes one read returned and submits every frame they
    /// complete. Returns [`Submit::Shutdown`] as soon as a frame asks
    /// for the drain; whatever followed it is never looked at.
    pub(crate) fn feed(&mut self, bytes: &[u8], reply: &Sender<String>) -> Submit {
        // What was buffered before holds no newline, so only the new
        // bytes are searched: a frame arriving in many reads is scanned
        // once, not once per read.
        let mut searched = self.buf.len();
        self.buf.extend_from_slice(bytes);
        while let Some(pos) = self.buf[searched..].iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=searched + pos).collect();
            searched = 0;
            if self.discarding {
                // The tail of an already-rejected oversize frame; the
                // transport is clean again.
                self.discarding = false;
                continue;
            }
            if self.submit(&line, reply) == Submit::Shutdown {
                return Submit::Shutdown;
            }
        }
        let max_frame = self.server.config().max_frame_bytes;
        if self.discarding {
            self.buf.clear();
        } else if self.buf.len() > max_frame {
            // Enforced at the buffer, not just the parser: a
            // newline-less flood cannot grow memory past the frame
            // limit.
            self.server.reject(
                reply,
                ServeCode::FrameTooLarge,
                format!("frame exceeds {max_frame} bytes; discarding to next newline"),
            );
            self.buf.clear();
            self.discarding = true;
        }
        Submit::Handled
    }

    /// End of input on a pipe: a last line without its newline is still
    /// a frame. (A socket that closes mid-frame has nobody left to
    /// answer, so the socket handler does not call this.)
    pub(crate) fn finish(self, reply: &Sender<String>) {
        if !self.discarding {
            self.submit(&self.buf, reply);
        }
    }

    fn submit(&self, line: &[u8], reply: &Sender<String>) -> Submit {
        let text = String::from_utf8_lossy(line);
        let text = text.trim();
        if text.is_empty() {
            return Submit::Handled;
        }
        self.server.submit(text, reply)
    }
}
