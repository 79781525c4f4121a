//! Fixture: a scheduler-style guard still held when the finished job's
//! timeline, built under that lock, is written to disk.

use std::sync::Mutex;

struct Timeline;

struct Inner {
    state: Mutex<Vec<u64>>,
}

impl Inner {
    fn persist_timeline(&self, _timeline: &Timeline) {}

    fn finish(&self, job: u64) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.retain(|id| *id != job);
        let timeline = Timeline;
        self.persist_timeline(&timeline);
    }
}

fn main() {
    let inner = Inner {
        state: Mutex::new(vec![1, 2]),
    };
    inner.finish(1);
}
