//! Service-thread lifecycle: the one place `netpipe` creates OS threads.
//!
//! Thread transparency means the middleware, not each component, owns
//! thread creation and lifetime. Every service thread of this crate — the
//! serving tier's accept loop, the inspector's accept loop and
//! per-client handlers, the remote host's event forwarder, the socket
//! links' writers and readers — is a [`Worker`]: a
//! named thread with a stop request that is stopped and joined when its
//! owner drops it. [`spawn_accept_loop`] is the one accept loop on top of
//! it. No link has a receive thread of its own beyond its socket reader:
//! whatever delivers a frame — the sender's thread (inproc), the
//! simulator's kernel thread (sim), a socket reader (TCP, UDP) — arrives
//! it into the link's receive queue, and into a bound pipeline from
//! there. A socket link starts its reader on its first `recv` or
//! `bind_receiver`, and its writer on its first `send`, so a link nobody
//! reads runs no reader, and one that never sends runs no writer.
//!
//! A worker whose body can drop its own last owner (the UDP server
//! reader upgrades a `Weak`, and a reader that ends a data binding lets
//! go of the link handle the binding held) is dropped *on its own
//! thread*. Joining there would wait for itself, so that one drop lets go
//! of the handle instead: the body is by then on its way out, and
//! `crates/netpipe/tests/lifecycle.rs` holds every backend to "thread
//! count returns to baseline".

use crate::transport::{Acceptor, TransportError};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What a worker and its body tell each other.
#[derive(Default)]
struct Signals {
    /// The owner asks the body to stop.
    stop: AtomicBool,
    /// The body has done its work ([`Stop::finish`]).
    done: AtomicBool,
}

/// The stop request a worker body polls between units of work.
pub(crate) struct Stop(Arc<Signals>);

impl Stop {
    pub(crate) fn requested(&self) -> bool {
        self.0.stop.load(Ordering::Acquire)
    }

    /// Marks the body's work done, so [`Worker::is_finished`] reads `true`
    /// from here on: a body calls it before it lets go of what its peer
    /// waits on (a handler, before it drops its link), so an owner that
    /// learns of that release through the peer finds the worker finished.
    pub(crate) fn finish(&self) {
        self.0.done.store(true, Ordering::Release);
    }
}

/// A named service thread, stopped and joined when dropped.
pub(crate) struct Worker<T = ()> {
    signals: Arc<Signals>,
    handle: Option<JoinHandle<T>>,
}

impl<T: Send + 'static> Worker<T> {
    /// Starts `body` on a new thread called `name`.
    ///
    /// # Errors
    ///
    /// The OS refused to create the thread.
    pub(crate) fn spawn(
        name: &str,
        body: impl FnOnce(&Stop) -> T + Send + 'static,
    ) -> io::Result<Worker<T>> {
        let signals = Arc::new(Signals::default());
        let flag = Stop(Arc::clone(&signals));
        let handle = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || body(&flag))?;
        Ok(Worker {
            signals,
            handle: Some(handle),
        })
    }

    /// Stops the worker and waits for it, returning what its body
    /// returned (`None` if the body panicked).
    pub(crate) fn shutdown(mut self) -> Option<T> {
        self.stop_and_join()
    }
}

impl<T> Worker<T> {
    /// Asks the body to stop without waiting for it.
    pub(crate) fn request_stop(&self) {
        self.signals.stop.store(true, Ordering::Release);
    }

    /// Whether the body has returned or marked its work done
    /// ([`Stop::finish`]); joining it then waits at most for the rest of
    /// its return.
    pub(crate) fn is_finished(&self) -> bool {
        self.signals.done.load(Ordering::Acquire)
            || self.handle.as_ref().is_none_or(JoinHandle::is_finished)
    }

    fn stop_and_join(&mut self) -> Option<T> {
        self.request_stop();
        let handle = self.handle.take()?;
        if handle.thread().id() == std::thread::current().id() {
            // Dropped by its own body (see the module docs): never
            // self-join.
            return None;
        }
        handle.join().ok()
    }
}

impl<T> Drop for Worker<T> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How often an accept loop checks its stop request between bounded
/// [`Acceptor::accept_timeout`] waits.
const ACCEPT_POLL: Duration = Duration::from_millis(50);

/// What an accept loop did over its lifetime.
pub(crate) struct Accepted {
    /// Links accepted and handed to `serve`.
    pub(crate) links: u64,
    /// The most per-link handlers alive at once.
    pub(crate) peak_handlers: usize,
}

/// The one accept loop: polls [`Acceptor::accept_timeout`] so a stop
/// request never needs a poison connection, and hands every accepted
/// link to `serve`. A `serve` that answers with a per-link handler
/// leaves the handler to the loop, which reaps finished ones (see
/// [`Worker::is_finished`]) on every poll and stops and joins the rest
/// when it ends.
///
/// # Errors
///
/// The OS refused to create the thread.
pub(crate) fn spawn_accept_loop<A: Acceptor + 'static>(
    name: &str,
    acceptor: A,
    mut serve: impl FnMut(A::Link) -> Option<Worker> + Send + 'static,
) -> io::Result<Worker<Accepted>> {
    Worker::spawn(name, move |stop| {
        let mut handlers: Vec<Worker> = Vec::new();
        let mut done = Accepted {
            links: 0,
            peak_handlers: 0,
        };
        while !stop.requested() {
            let accepted = acceptor.accept_timeout(ACCEPT_POLL);
            handlers.retain(|h| !h.is_finished());
            match accepted {
                Ok(Some(link)) => {
                    done.links += 1;
                    handlers.extend(serve(link));
                    done.peak_handlers = done.peak_handlers.max(handlers.len());
                }
                Ok(None) => {}
                Err(TransportError::Closed) => break,
                // Transient socket errors (e.g. a connection reset
                // between accept and handshake) should not kill the
                // serving tier.
                Err(_) => {}
            }
        }
        // Ask every handler first, then join: the waits overlap.
        handlers.iter().for_each(Worker::request_stop);
        drop(handlers);
        done
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_worker_dropped_by_its_own_body_does_not_join_itself() {
        // The owner hands the body the only reference to itself — what a
        // reader ends up holding once its binding took the last link
        // handle.
        let (tx, rx) = std::sync::mpsc::channel::<Worker>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = Worker::spawn("test-self-owner", move |_| {
            let me = rx.recv().expect("owner sends the handle");
            drop(me);
            done_tx.send(()).expect("owner waits");
        })
        .unwrap();
        tx.send(worker).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the body must survive dropping its own handle");
    }
}
