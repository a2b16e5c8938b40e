//! Spawning the real `pae-serve` binary and reading its own view of
//! the load (`/metrics`, `/statusz`, `/proc/<pid>`).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::http::{render_request, Conn};
use crate::json;

/// Connection workers of every server the benchmark starts.
pub const WORKERS: usize = 2;

/// A running `pae-serve` process; killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Held open so that a later line on the server's stdout cannot
    /// fail with a broken pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub pid: String,
}

impl ServerProc {
    /// Starts the server on an ephemeral port and returns it with its
    /// set-up time: from spawn until the first `200` from `/healthz`.
    pub fn spawn(
        bin: &Path,
        bundle: &Path,
        log: &Path,
        profile: bool,
    ) -> Result<(ServerProc, f64), String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.arg(bundle)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .env_clear()
            .env("PAE_JOBS", crate::JOBS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file);
        if profile {
            cmd.arg("--profile");
        }
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id().to_string();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let mut server = ServerProc {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            pid,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => server.addr = addr,
            _ => {
                return Err(format!(
                    "server did not report its address (got {line:?}); see {}",
                    log.display()
                ))
            }
        }
        loop {
            match server.get("/healthz") {
                Ok(_) => break,
                Err(e) if started.elapsed().as_secs() > 30 => {
                    return Err(format!("/healthz never answered 200: {e}"))
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// `GET path` on a fresh connection; the body of a `200`.
    pub fn get(&self, path: &str) -> Result<String, String> {
        let (result, _) = Conn::new(self.addr).request(&render_request("GET", path, ""));
        let body = result.map_err(|f| format!("GET {path}: {f:?}"))?;
        String::from_utf8(body).map_err(|_| format!("GET {path}: body is not UTF-8"))
    }

    /// `/statusz` as parsed JSON.
    pub fn statusz(&self) -> Result<json::Value, String> {
        json::parse(&self.get("/statusz")?).map_err(|e| format!("/statusz: {e}"))
    }

    /// The cumulative extract-route request count and time sum from
    /// `/metrics` (zero before the route's first request).
    pub fn extract_totals(&self) -> Result<RouteTotals, String> {
        let text = self.get("/metrics")?;
        let find = |name: &str| {
            text.lines()
                .find(|l| l.starts_with(name) && l.contains("route=\"extract\""))
                .map_or(Ok(0.0), |l| {
                    l.rsplit(' ')
                        .next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .ok_or_else(|| format!("/metrics: unreadable sample {l:?}"))
                })
        };
        Ok(RouteTotals {
            count: find("serve_live_request_ns_count")?,
            sum_ns: find("serve_live_request_ns_sum")?,
        })
    }

    pub fn cpu_s(&self) -> Result<f64, String> {
        crate::stats::process_cpu_s(&self.pid).ok_or_else(|| "cannot read server CPU time".into())
    }

    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        crate::stats::peak_rss_mib(&self.pid).ok_or_else(|| "cannot read server VmHWM".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Cumulative server-side totals of one route.
#[derive(Debug, Clone, Copy)]
pub struct RouteTotals {
    pub count: f64,
    pub sum_ns: f64,
}
