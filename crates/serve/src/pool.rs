//! A fixed worker pool in front of an [`AllocatorService`]: submissions
//! enqueue and return a [`Ticket`]; `workers` threads drain the queue by
//! calling [`AllocatorService::handle`].
//!
//! The pool adds *throughput*, not semantics — every answer is exactly what
//! a direct `handle` call would have produced (see the crate-level
//! determinism contract), so the worker count is a pure performance knob.
//! A request whose handler panics costs its own ticket
//! ([`ServeError::WorkerPanicked`]), not the worker. Dropping the pool
//! finishes all queued work before joining the workers.

use crate::service::{AllocRequest, AllocResponse, AllocatorService, ServeError};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One submission's answer slot, filled by whichever worker ran it.
#[derive(Debug, Default)]
struct TicketState {
    slot: Mutex<Option<Result<AllocResponse, ServeError>>>,
    ready: Condvar,
}

/// A pending answer from [`ServicePool::submit`]; redeem with
/// [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Blocks until a worker answers the request, then returns the answer.
    pub fn wait(self) -> Result<AllocResponse, ServeError> {
        let mut slot = self.state.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.state.ready.wait(slot).expect("ticket poisoned");
        }
    }
}

#[derive(Debug)]
struct Job {
    request: AllocRequest,
    ticket: Arc<TicketState>,
}

#[derive(Debug)]
struct PoolShared {
    service: Arc<AllocatorService>,
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

/// The worker pool. Create with [`ServicePool::new`]; submit with
/// [`ServicePool::submit`].
#[derive(Debug)]
pub struct ServicePool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServicePool {
    /// Spawns `workers` threads serving `service`.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero or a thread fails to spawn.
    pub fn new(service: Arc<AllocatorService>, workers: usize) -> Self {
        let target = Arc::clone(&service);
        Self::spawn(service, workers, move |r| target.handle(r))
    }

    /// Spawns `workers` threads that answer each request with `handle`.
    fn spawn<H>(service: Arc<AllocatorService>, workers: usize, handle: H) -> Self
    where
        H: Fn(&AllocRequest) -> Result<AllocResponse, ServeError> + Send + Sync + 'static,
    {
        assert!(workers > 0, "a pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            service,
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handle = Arc::new(handle);
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let handle = Arc::clone(&handle);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &*handle))
                    .expect("failed to spawn serve worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// The service behind the pool.
    pub fn service(&self) -> &Arc<AllocatorService> {
        &self.shared.service
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues `request` and returns a [`Ticket`] for its answer.
    pub fn submit(&self, request: AllocRequest) -> Ticket {
        let state = Arc::new(TicketState::default());
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.push_back(Job { request, ticket: Arc::clone(&state) });
        }
        self.shared.work_ready.notify_one();
        Ticket { state }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            // A handler panic already answered its ticket inside the loop;
            // there is nothing left to surface here.
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    shared: &PoolShared,
    handle: &dyn Fn(&AllocRequest) -> Result<AllocResponse, ServeError>,
) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                // Queued work drains before shutdown is honoured, so a
                // dropped pool still answers everything submitted.
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| handle(&job.request)))
            .unwrap_or_else(|payload| Err(ServeError::WorkerPanicked(panic_message(&*payload))));
        *job.ticket.slot.lock().expect("ticket poisoned") = Some(result);
        job.ticket.ready.notify_all();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => (*s).to_string(),
        (_, Some(s)) => s.clone(),
        _ => "non-string panic payload".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Query;

    fn probe(day: usize) -> AllocRequest {
        AllocRequest { tenant: "t".into(), query: Query::QValues { day, state: None } }
    }

    #[test]
    fn a_panicking_request_costs_its_ticket_not_the_worker() {
        // One worker: had the panic killed it, nothing after would answer.
        let pool = ServicePool::spawn(Arc::new(AllocatorService::new()), 1, |r| match r.query {
            Query::QValues { day: 1, .. } => panic!("probe 1 explodes"),
            Query::QValues { day, .. } => Ok(AllocResponse::QValues { key: day, q: vec![] }),
            _ => unreachable!("the test only sends probes"),
        });
        let tickets: Vec<Ticket> = (0..3).map(|day| pool.submit(probe(day))).collect();
        let answers: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(answers[0].as_ref().unwrap(), &AllocResponse::QValues { key: 0, q: vec![] });
        assert!(
            matches!(&answers[1], Err(ServeError::WorkerPanicked(m)) if m == "probe 1 explodes"),
            "{:?}",
            answers[1]
        );
        assert_eq!(answers[2].as_ref().unwrap(), &AllocResponse::QValues { key: 2, q: vec![] });
    }
}
