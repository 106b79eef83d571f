//! Blocking client for the PRIMACY compression service.
//!
//! One [`ServeClient`] wraps one TCP connection and speaks the frame
//! protocol from [`crate::protocol`]. Requests are answered in order, so a
//! single client is strictly request/response; open more clients for
//! concurrency (the load generator opens hundreds).

use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    read_frame, FrameError, Op, ProtoError, Request, Response, ServeCodec, Status,
    DEFAULT_MAX_FRAME,
};

/// Client-side failure talking to the service.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, or write).
    Io(std::io::Error),
    /// The server sent bytes that violate the protocol.
    Proto(ProtoError),
    /// The server closed the connection before answering.
    ServerClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            FrameError::Proto(p) => ClientError::Proto(p),
        }
    }
}

/// One blocking connection to a `primacy-serve` instance.
pub struct ServeClient {
    stream: TcpStream,
    /// Cap on response bodies accepted from the server.
    max_frame: usize,
}

impl ServeClient {
    /// Connect to `addr` with the default response-size cap.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<ServeClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(ServeClient {
            stream,
            max_frame: crate::protocol::max_response_body(DEFAULT_MAX_FRAME),
        })
    }

    /// Set read/write timeouts on the underlying socket.
    pub fn set_timeouts(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    /// Send one request and block for its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let frame = request.encode_frame().map_err(ClientError::Proto)?;
        self.stream.write_all(&frame)?;
        match read_frame(&mut self.stream, self.max_frame)? {
            Some(body) => Response::decode(&body).map_err(ClientError::Proto),
            None => Err(ClientError::ServerClosed),
        }
    }

    /// Pipelined burst: write every request back-to-back, then read exactly
    /// one response per request. Responses arrive in whatever order the
    /// server's workers finished them — match them to requests by
    /// `request_id`.
    pub fn request_burst(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        let mut frames = Vec::new();
        for request in requests {
            frames.extend_from_slice(&request.encode_frame().map_err(ClientError::Proto)?);
        }
        self.stream.write_all(&frames)?;
        let mut responses = Vec::with_capacity(requests.len());
        for _ in requests {
            match read_frame(&mut self.stream, self.max_frame)? {
                Some(body) => responses.push(Response::decode(&body).map_err(ClientError::Proto)?),
                None => return Err(ClientError::ServerClosed),
            }
        }
        Ok(responses)
    }

    /// Health check: sends `Ping`, expects the payload echoed back.
    pub fn ping(&mut self, request_id: u64, tenant: u64) -> Result<Response, ClientError> {
        self.request(&Request {
            op: Op::Ping,
            codec: ServeCodec::Zlib,
            request_id,
            tenant,
            payload: Vec::new(),
        })
    }

    /// Compress `payload` with `codec`; returns the full response (check
    /// `status` — `Busy`/`Timeout` are expected under load).
    pub fn compress(
        &mut self,
        codec: ServeCodec,
        request_id: u64,
        tenant: u64,
        payload: Vec<u8>,
    ) -> Result<Response, ClientError> {
        self.request(&Request {
            op: Op::Compress,
            codec,
            request_id,
            tenant,
            payload,
        })
    }

    /// Decompress `payload` with `codec`.
    pub fn decompress(
        &mut self,
        codec: ServeCodec,
        request_id: u64,
        tenant: u64,
        payload: Vec<u8>,
    ) -> Result<Response, ClientError> {
        self.request(&Request {
            op: Op::Decompress,
            codec,
            request_id,
            tenant,
            payload,
        })
    }
}

/// `Ok` payload or a typed error for any other status — the convenience
/// most callers want after [`ServeClient::request`].
pub fn expect_ok(response: Response) -> Result<Vec<u8>, ClientError> {
    if response.status == Status::Ok {
        Ok(response.payload)
    } else {
        // Non-Ok statuses carry a UTF-8 diagnostic; surface it as an
        // io::Error so callers get one error channel.
        let detail = String::from_utf8_lossy(&response.payload);
        Err(ClientError::Io(std::io::Error::other(format!(
            "server answered {}: {detail}",
            response.status
        ))))
    }
}
