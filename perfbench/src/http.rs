//! A minimal keep-alive HTTP/1.1 client for the loopback daemon.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// One persistent connection; requests are sent one at a time.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("timeout: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    pub fn request(&mut self, method: &str, target: &str, body: &str) -> Result<Reply, String> {
        let raw = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(raw.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        self.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = None;
        loop {
            line.clear();
            self.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or("reply without content-length")?;
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        let body = String::from_utf8(body).map_err(|_| "reply body is not UTF-8".to_owned())?;
        Ok(Reply { status, body })
    }

    fn read_line(&mut self, line: &mut String) -> Result<(), String> {
        match self.reader.read_line(line) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}
