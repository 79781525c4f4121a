//! Fixture: a scheduler-style guard held across the store's chunk append.

use std::sync::Mutex;

struct Store;

impl Store {
    fn append_cache(&self, _key: &str, _entries: Vec<u64>) -> std::io::Result<()> {
        Ok(())
    }
}

fn finish_job(state: &Mutex<Vec<u64>>, store: &Store) {
    let mut guard = state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let added = std::mem::take(&mut *guard);
    let _ = store.append_cache("small:4000:1", added);
}

fn main() {
    finish_job(&Mutex::new(vec![1, 2]), &Store);
}
