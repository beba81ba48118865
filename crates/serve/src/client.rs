//! Blocking TCP client for the serve protocol — the library behind the
//! `esp-client` binary and the integration tests.

use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    read_frame, write_frame, PredictRow, Prediction, ProfileAck, ProfileRecord, Request, Response,
    ServeError, ServerInfo, StatsSnapshot,
};

/// One connection to an `esp-serve` instance.
///
/// Every request is stamped with a monotonically increasing request id
/// (starting at 1) that the server echoes on the response and carries into
/// its spans — the cross-process correlation key a merged client+server
/// trace joins on. A response echoing the wrong id is a protocol error.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_req_id: u64,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_req_id: 1,
        })
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ServeError> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let mut sp = esp_obs::span!("client", "round_trip", req = req_id);
        write_frame(&mut self.writer, &req.encode_with_id(req_id)?)?;
        let payload = read_frame(&mut self.reader)?
            .ok_or_else(|| ServeError::Protocol("server closed the connection".into()))?;
        let (echoed, resp) = Response::decode_with_id(&payload)?;
        if echoed != req_id {
            return Err(ServeError::Protocol(format!(
                "response echoes request id {echoed}, expected {req_id}"
            )));
        }
        if sp.is_enabled() {
            sp.arg("ok", !matches!(resp, Response::Error(_)));
        }
        match resp {
            Response::Error(msg) => Err(ServeError::Remote(msg)),
            resp => Ok(resp),
        }
    }

    /// Predict a batch of raw encoded rows against the server's default
    /// model; results come back in order. A ragged batch (rows or masks of
    /// differing lengths) fails client-side with [`ServeError::Protocol`]
    /// before anything is sent.
    pub fn predict(&mut self, rows: Vec<PredictRow>) -> Result<Vec<Prediction>, ServeError> {
        self.predict_model("", rows)
    }

    /// [`Client::predict`] against a selected model: `""` is the server's
    /// default, `"name"` the newest loaded version of that registry name,
    /// `"name@version"` one exact version. An unknown selector comes back
    /// as [`ServeError::Remote`].
    pub fn predict_model(
        &mut self,
        model: &str,
        rows: Vec<PredictRow>,
    ) -> Result<Vec<Prediction>, ServeError> {
        let req = Request::Predict {
            model: model.to_string(),
            rows,
        };
        match self.round_trip(&req)? {
            Response::Predictions(ps) => Ok(ps),
            other => Err(ServeError::Protocol(format!(
                "expected predictions, got {other:?}"
            ))),
        }
    }

    /// Report observed branch outcomes for the server's accuracy ledger.
    /// Keys are [`crate::site_key`] bytes; zero-length keys and non-finite
    /// or negative weights fail client-side before anything is sent.
    pub fn profile(&mut self, records: Vec<ProfileRecord>) -> Result<ProfileAck, ServeError> {
        match self.round_trip(&Request::Profile(records))? {
            Response::Profiled(ack) => Ok(ack),
            other => Err(ServeError::Protocol(format!(
                "expected profile ack, got {other:?}"
            ))),
        }
    }

    /// Fetch the server's metrics counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServeError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ServeError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Fetch model facts (dimensionality, provenance) for the server's
    /// default model.
    pub fn info(&mut self) -> Result<ServerInfo, ServeError> {
        self.info_model("")
    }

    /// [`Client::info`] for a selected model (`""`, `"name"`, or
    /// `"name@version"`).
    pub fn info_model(&mut self, model: &str) -> Result<ServerInfo, ServeError> {
        let req = Request::Info {
            model: model.to_string(),
        };
        match self.round_trip(&req)? {
            Response::Info(i) => Ok(i),
            other => Err(ServeError::Protocol(format!(
                "expected info, got {other:?}"
            ))),
        }
    }

    /// Ask the server to shut down gracefully; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ServeError::Protocol(format!(
                "expected shutdown ack, got {other:?}"
            ))),
        }
    }
}
