//! Allocator settings that make the process's peak RSS repeatable.
//!
//! `peak_rss_mib` is the process's VmHWM. With glibc's defaults it
//! depended on allocation history rather than on the program: the build
//! workload's peak ranged from 267 to 356 MiB between runs. Two causes
//! are removed here. glibc raises its mmap threshold whenever a large
//! block is freed, so later large blocks come from the heap and may stay
//! resident; and memory freed by one build stays in the allocator's
//! arenas, where the next build's threads, in whatever order they run,
//! fragment it further. After a build the process still held 162 MiB
//! with no index alive.

/// Fixes glibc's mmap threshold at its default of 128 KiB, so every
/// large block is mapped on allocation and unmapped on free. Called
/// before the process starts any other thread.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn fix_mmap_threshold() -> Result<(), String> {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only changes allocator parameters.
    match unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } {
        1 => Ok(()),
        _ => Err("mallopt(M_MMAP_THRESHOLD) failed".into()),
    }
}

/// Returns the free memory of every arena to the system, so that each
/// build starts from the allocator state a fresh process would give it.
/// Called between builds and before the serving phase, off the clock.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim only releases pages no allocation uses.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn fix_mmap_threshold() -> Result<(), String> {
    Ok(())
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_memory() {}
