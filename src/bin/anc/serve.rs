//! `anc serve` — boot the fault-isolated compile daemon on stdio, a
//! Unix socket, a TCP address, or both socket transports at once
//! (`shutdown` on either stops both). Exits 0 after a clean drain
//! (shutdown verb or stdin EOF), 2 on usage errors, 1 on transport
//! failures.

use crate::cli::Args;
use crate::Stop;
use access_normalization::serve::{serve_lines, serve_tcp, ServeConfig, Server, Shutdown};
use std::process::ExitCode;

pub fn run(args: &Args) -> Result<ExitCode, Stop> {
    let base = ServeConfig::default();
    let config = ServeConfig {
        workers: args.number_or("--workers", base.workers)?,
        queue_capacity: args.number_or("--queue", base.queue_capacity)?,
        default_deadline_ms: args.number("--deadline-ms")?.or(base.default_deadline_ms),
        max_frame_bytes: args.number_or("--max-frame-bytes", base.max_frame_bytes)?,
        retry_after_ms: args.number_or("--retry-after-ms", base.retry_after_ms)?,
        retry_jitter_seed: args.number_or("--retry-jitter-seed", base.retry_jitter_seed)?,
        cache_dir: args.value("--cache-dir").map(std::path::PathBuf::from),
        cache_cap_bytes: args.number_or("--cache-cap", base.cache_cap_bytes)?,
        quarantine_cap: args.number_or("--quarantine-cap", base.quarantine_cap)?,
        max_conns: args.number_or("--max-conns", base.max_conns)?,
        frame_read_deadline_ms: args
            .number("--frame-deadline-ms")?
            .or(base.frame_read_deadline_ms),
    };
    let socket = args.value("--socket");
    let tcp = args.value("--tcp");
    if args.on("--stdio") && (socket.is_some() || tcp.is_some()) {
        return Err(args.usage("--stdio cannot be combined with --socket or --tcp"));
    }
    #[cfg(not(unix))]
    if socket.is_some() {
        return Err(args.usage("--socket requires a unix platform; use --tcp or --stdio"));
    }

    // Bind TCP before forking off any transport thread so the resolved
    // address (port 0 = ephemeral) can be announced for discovery.
    let tcp_listener = match tcp {
        None => None,
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| args.usage(format!("cannot bind --tcp '{addr}': {e}")))?;
            let resolved = listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.to_string());
            Some((listener, resolved))
        }
    };

    // Poison pills panic inside fault cells by design; a per-panic
    // backtrace would flood the daemon log. One quiet line suffices —
    // the client gets the structured AN0705 either way.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("anc serve: contained panic in fault cell: {info}");
    }));

    let server = Server::start(config);
    let mut endpoints: Vec<String> = Vec::new();
    if let Some(path) = socket {
        endpoints.push(format!("unix:{path}"));
    }
    if let Some((_, resolved)) = &tcp_listener {
        endpoints.push(format!("tcp://{resolved}"));
    }
    if endpoints.is_empty() {
        endpoints.push("stdio".to_string());
    }
    eprintln!(
        "anc serve: {} worker(s), listening on {}",
        server.worker_count(),
        endpoints.join(" and "),
    );

    let result = match (socket, tcp_listener) {
        (None, None) => {
            let stdin = std::io::stdin();
            serve_lines(&server, stdin.lock(), std::io::stdout())
        }
        (socket, tcp_listener) => {
            // One shutdown latch across both transports: a `shutdown`
            // frame on either stops the other's accept loop too.
            let shutdown = Shutdown::new();
            std::thread::scope(|scope| {
                let unix_task = socket.map(|path| {
                    #[cfg(unix)]
                    {
                        let srv = &server;
                        let sd = &shutdown;
                        scope.spawn(move || {
                            access_normalization::serve::serve_unix(
                                srv,
                                std::path::Path::new(path),
                                sd,
                            )
                        })
                    }
                    #[cfg(not(unix))]
                    {
                        unreachable!("rejected above")
                    }
                });
                let tcp_result = match tcp_listener {
                    Some((listener, _)) => serve_tcp(&server, listener, &shutdown),
                    // Unix-only mode still needs the latch honoured on
                    // this thread; just wait for the listener below.
                    None => Ok(()),
                };
                let unix_result = match unix_task {
                    Some(handle) => handle.join().expect("unix listener thread"),
                    None => Ok(()),
                };
                tcp_result.and(unix_result)
            })
        }
    };
    server.join();
    match result {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("anc serve: transport error: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}
