//! Client side of the daemon's two transports, written against the wire
//! formats rather than the library's clients so the load generator owns
//! every byte and every timestamp.

use crate::workload::{Chunk, Request, Transport};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Session handles learned from `session_create` replies.
pub struct Handles {
    slots: Mutex<Vec<Option<String>>>,
    ready: Condvar,
}

impl Handles {
    pub fn new(sessions: usize) -> Handles {
        Handles {
            slots: Mutex::new(vec![None; sessions]),
            ready: Condvar::new(),
        }
    }

    pub fn set(&self, sess: usize, handle: String) {
        self.slots.lock().expect("handle table")[sess] = Some(handle);
        self.ready.notify_all();
    }

    /// Waits (bounded) until session `sess` has a handle.
    pub fn get(&self, sess: usize) -> io::Result<String> {
        let guard = self.slots.lock().expect("handle table");
        let (guard, _) = self
            .ready
            .wait_timeout_while(guard, Duration::from_secs(30), |slots| {
                slots[sess].is_none()
            })
            .expect("handle table");
        guard[sess]
            .clone()
            .ok_or_else(|| io::Error::other(format!("session {sess} never got a handle")))
    }
}

/// What precedes a request body on the wire: HTTP request line and
/// headers, or the `pcp2` frame header. A framed body is followed by `\n`.
pub fn request_head(transport: Transport, path: &str, body_len: usize) -> String {
    match transport {
        Transport::Http => format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {body_len}\r\n\r\n"
        ),
        Transport::Framed => format!("pcp2 {body_len}\n"),
    }
}

/// One client connection.
pub struct Conn {
    reader: Box<dyn BufRead + Send>,
    writer: BufWriter<Box<dyn Write + Send>>,
    transport: Transport,
}

impl Conn {
    pub fn open(transport: Transport, http_addr: &str, socket: &str) -> io::Result<Conn> {
        let (reader, writer): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match transport {
            Transport::Http => {
                let s = TcpStream::connect(http_addr)?;
                s.set_nodelay(true)?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
            Transport::Framed => {
                let s = UnixStream::connect(socket)?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
        };
        Ok(Conn {
            reader: Box::new(BufReader::with_capacity(1 << 16, reader)),
            writer: BufWriter::with_capacity(1 << 16, writer),
            transport,
        })
    }

    /// Writes one request (substituting session handles) and flushes.
    pub fn send(&mut self, request: &Request, handles: &Handles) -> io::Result<()> {
        let handle_text: Vec<String> = request
            .sessions()
            .map(|s| handles.get(s))
            .collect::<io::Result<_>>()?;
        let head = request_head(self.transport, request.path, request.body_len());
        self.writer.write_all(head.as_bytes())?;
        let mut handle_text = handle_text.iter();
        for chunk in &request.chunks {
            match chunk {
                Chunk::Bytes(b) => self.writer.write_all(b)?,
                Chunk::Handle(_) => {
                    let h = handle_text.next().expect("one handle per slot");
                    if h.len() != crate::workload::HANDLE_LEN {
                        return Err(io::Error::other(format!("unexpected handle {h:?}")));
                    }
                    self.writer.write_all(h.as_bytes())?
                }
            }
        }
        if self.transport == Transport::Framed {
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()
    }

    /// Reads one reply: `(status, body)`. Framed replies report 200.
    pub fn recv(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let mut line = String::new();
        match self.transport {
            Transport::Http => {
                read_line(&mut self.reader, &mut line)?;
                let status: u16 = line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
                let mut len = 0usize;
                loop {
                    read_line(&mut self.reader, &mut line)?;
                    let header = line.trim_end();
                    if header.is_empty() {
                        break;
                    }
                    if let Some((name, value)) = header.split_once(':') {
                        if name.eq_ignore_ascii_case("content-length") {
                            len = value.trim().parse().map_err(io::Error::other)?;
                        }
                    }
                }
                let mut body = vec![0u8; len];
                self.reader.read_exact(&mut body)?;
                Ok((status, body))
            }
            Transport::Framed => {
                read_line(&mut self.reader, &mut line)?;
                let len: usize = line
                    .trim_end()
                    .strip_prefix("pcp2 ")
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| io::Error::other(format!("bad frame header {line:?}")))?;
                let mut body = vec![0u8; len + 1];
                self.reader.read_exact(&mut body)?;
                body.pop();
                Ok((200, body))
            }
        }
    }

    /// Moves the read half into a connection of its own, so one thread can
    /// send while another receives (pipelining).
    pub fn split_reader(&mut self) -> io::Result<Conn> {
        let reader = std::mem::replace(&mut self.reader, Box::new(io::empty()));
        Ok(Conn {
            reader,
            writer: BufWriter::new(Box::new(io::sink())),
            transport: self.transport,
        })
    }

    /// One request, one reply.
    pub fn call(&mut self, request: &Request, handles: &Handles) -> io::Result<(u16, Vec<u8>)> {
        self.send(request, handles)?;
        self.recv()
    }
}

fn read_line(reader: &mut Box<dyn BufRead + Send>, line: &mut String) -> io::Result<()> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    Ok(())
}

/// A one-shot HTTP request on a fresh connection (control routes).
pub fn http_call(addr: &str, method: &str, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut conn = Conn {
        reader: Box::new(BufReader::new(s.try_clone()?)),
        writer: BufWriter::new(Box::new(s)),
        transport: Transport::Http,
    };
    write!(
        conn.writer,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )?;
    conn.writer.flush()?;
    conn.recv()
}
