//! The program under test as a child process: spawn `parinda-cli serve`,
//! talk the console grammar over loopback, kill and restart it.
//!
//! One request at a time per connection (closed loop): `request` sends a
//! line and returns only when the whole reply frame has arrived.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::common::Checker;

/// A reply that does not arrive within this long fails the run rather
/// than hanging it (the driver allows 180 s per run).
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `parinda-cli serve` child.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn `serve --load paper [--data-dir <dir>]` and wait for its
    /// `listening on <addr>` line. A daemon restarted on an existing data
    /// dir prints that line only after recovery has replayed every
    /// journaled session.
    pub fn spawn(cli: &Path, data_dir: Option<&Path>) -> io::Result<Daemon> {
        let mut cmd = Command::new(cli);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--load", "paper"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        // PARINDA_THREADS would override the `threads` verb's default.
        cmd.env_remove("PARINDA_THREADS");
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut line = String::new();
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let read = out.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                // Keep the pipe open for the child's lifetime: it prints
                // nothing more, but a closed stdout would turn any future
                // print into a SIGPIPE.
                child.stdout = Some(out.into_inner());
                Ok(Daemon { child, addr })
            }
            (read, _) => {
                child.kill().ok();
                child.wait().ok();
                Err(io::Error::other(format!(
                    "daemon did not announce its address (read {read:?}, line {line:?})"
                )))
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the child so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb_of(&format!("/proc/{}/status", self.child.id()))
    }

    /// SIGKILL the child and reap it: a process crash. The OS page cache
    /// survives, so what this tests is process-crash durability.
    pub fn kill(self) {
        drop(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // SIGKILL, then reap. Also the panic path: never leave a daemon
        // behind.
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB (0 if unreadable).
pub fn peak_rss_mb_of(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reply frame.
pub struct Reply {
    /// `ok` frame (anything else — `err`, `bye`, a torn frame — is a
    /// failed request).
    pub ok: bool,
    pub payload: String,
    /// Send-to-last-byte latency, seconds.
    pub secs: f64,
}

/// One console session over TCP.
pub struct Client {
    write: TcpStream,
    read: BufReader<TcpStream>,
}

impl Client {
    /// Connect and consume the greeting frame.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let write = TcpStream::connect(addr)?;
        write.set_nodelay(true)?;
        write.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let read = BufReader::new(write.try_clone()?);
        let mut c = Client { write, read };
        let (ok, _) = c.read_frame()?;
        if ok {
            Ok(c)
        } else {
            Err(io::Error::other("daemon refused the connection"))
        }
    }

    fn read_frame(&mut self) -> io::Result<(bool, String)> {
        let mut header = String::new();
        if self.read.read_line(&mut header)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let len: usize = header
            .trim_end()
            .rsplit(' ')
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad frame header {header:?}")))?;
        let mut payload = vec![0u8; len];
        self.read.read_exact(&mut payload)?;
        Ok((
            header.starts_with("ok "),
            String::from_utf8_lossy(&payload).into_owned(),
        ))
    }

    /// Send one console line and wait for its reply. An I/O failure is
    /// reported as a failed reply, not an error: it counts in
    /// `failed_share` like any refused request.
    pub fn request(&mut self, line: &str) -> Reply {
        let start = Instant::now();
        let sent = self.write.write_all(format!("{line}\n").as_bytes());
        let frame = sent.and_then(|()| self.read_frame());
        let secs = start.elapsed().as_secs_f64();
        match frame {
            Ok((ok, payload)) => Reply { ok, payload, secs },
            Err(e) => Reply {
                ok: false,
                payload: format!("i/o: {e}"),
                secs,
            },
        }
    }
}

/// The lines a session is primed with: the workload's own, then
/// `profile on` (the program's tracer) in a traced round.
pub fn primed<'a>(prime: &[&'a str], traced: bool) -> Vec<&'a str> {
    prime
        .iter()
        .copied()
        .chain(traced.then_some("profile on"))
        .collect()
}

/// Spawn a daemon and open `clients` sessions on it, one after the other,
/// each primed with `prime`. The first session to journal a command owns
/// durable session 1, the second 2. A failure is booked in `checker`.
pub fn set_up(
    cli: &Path,
    data_dir: Option<&Path>,
    clients: usize,
    prime: &[&str],
    checker: &mut Checker,
) -> Option<(Daemon, Vec<Client>)> {
    let up = Daemon::spawn(cli, data_dir).and_then(|daemon| {
        let sessions = (0..clients)
            .map(|_| Client::connect(daemon.addr))
            .collect::<io::Result<Vec<_>>>()?;
        Ok((daemon, sessions))
    });
    match up {
        Ok((daemon, mut sessions)) => {
            for client in &mut sessions {
                for line in prime {
                    let r = client.request(line);
                    checker.reply(line, &r);
                }
            }
            Some((daemon, sessions))
        }
        Err(e) => {
            checker.check(false, || format!("set-up: {e}"));
            None
        }
    }
}

/// Run `work` once per item, each on its own thread, all released
/// together. Returns the wall-clock from the release to the slowest
/// thread's end, and the results in item order.
pub fn together<T: Send, R: Send>(
    items: Vec<T>,
    work: impl Fn(usize, T) -> R + Sync,
) -> (f64, Vec<R>) {
    let barrier = Barrier::new(items.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    barrier.wait();
                    (work(i, item), Instant::now())
                })
            })
            .collect();
        barrier.wait();
        let released = Instant::now();
        let done: Vec<(R, Instant)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let secs = done
            .iter()
            .map(|(_, end)| *end - released)
            .max()
            .unwrap_or_default()
            .as_secs_f64();
        (secs, done.into_iter().map(|(r, _)| r).collect())
    })
}

/// The value of `key` in a `server stats` report (`key value` lines).
pub fn stat(report: &str, key: &str) -> Option<u64> {
    report.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        if k == key {
            v.trim().parse().ok()
        } else {
            None
        }
    })
}
