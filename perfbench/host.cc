#include "host.h"

#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_allocs{0};

// Depth of open ExcludedScopes; read by the signal handler.
volatile sig_atomic_t g_excluded_depth = 0;
uint64_t g_excluded_nanos = 0;
uint64_t g_excluded_allocs = 0;

uint64_t StatusFieldKb(const char* field) {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  const size_t len = strlen(field);
  uint64_t kb = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, field, len) == 0) {
      kb = strtoull(line + len, nullptr, 10);
      break;
    }
  }
  fclose(f);
  return kb;
}

// --- Sampler state ------------------------------------------------------------

constexpr int kMaxFrames = 24;

struct Sample {
  uint32_t depth;
  uintptr_t pcs[kMaxFrames];
};

Sample* g_samples = nullptr;
size_t g_capacity = 0;
volatile size_t g_count = 0;
volatile size_t g_dropped = 0;

uintptr_t InterruptedPc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void OnProf(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  if (g_excluded_depth > 0) {
    errno = saved_errno;
    return;
  }
  if (g_count >= g_capacity) {
    g_dropped = g_dropped + 1;
    errno = saved_errno;
    return;
  }
  Sample& sample = g_samples[g_count];
  const uintptr_t leaf = InterruptedPc(context);
  // The unwinder walks handler -> signal trampoline -> interrupted frame
  // -> its callers; keep what lies above the interrupted PC.
  void* frames[kMaxFrames + 8];
  const int n = backtrace(frames, kMaxFrames + 8);
  int first = 0;
  while (first < n && reinterpret_cast<uintptr_t>(frames[first]) != leaf) {
    ++first;
  }
  uint32_t depth = 0;
  sample.pcs[depth++] = leaf;
  for (int i = first + 1; i < n && depth < kMaxFrames; ++i) {
    sample.pcs[depth++] = reinterpret_cast<uintptr_t>(frames[i]);
  }
  sample.depth = depth;
  g_count = g_count + 1;
  errno = saved_errno;
}

int MainBias(dl_phdr_info* info, size_t, void* out) {
  // The first object reported is the executable itself.
  *static_cast<uintptr_t*>(out) = info->dlpi_addr;
  return 1;
}

void SetTimer(uint64_t period_micros) {
  itimerval timer{};
  timer.it_interval.tv_sec = static_cast<time_t>(period_micros / 1'000'000);
  timer.it_interval.tv_usec =
      static_cast<suseconds_t>(period_micros % 1'000'000);
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

}  // namespace

uint64_t CpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t RssKb() { return StatusFieldKb("VmRSS:"); }
uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
uint64_t ExcludedCpuNanos() { return g_excluded_nanos; }
uint64_t ExcludedAllocCount() { return g_excluded_allocs; }

ExcludedScope::ExcludedScope()
    : start_cpu_(CpuNanos()), start_allocs_(AllocCount()) {
  g_excluded_depth = g_excluded_depth + 1;
}

ExcludedScope::~ExcludedScope() {
  g_excluded_depth = g_excluded_depth - 1;
  if (g_excluded_depth == 0) {
    g_excluded_nanos += CpuNanos() - start_cpu_;
    g_excluded_allocs += AllocCount() - start_allocs_;
  }
}

void Sampler::Start(uint64_t period_micros, size_t max_samples) {
  g_samples = static_cast<Sample*>(calloc(max_samples, sizeof(Sample)));
  g_capacity = g_samples != nullptr ? max_samples : 0;
  g_count = 0;
  g_dropped = 0;
  // backtrace() loads the unwinder on first use; do that here, outside
  // the signal handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction action{};
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  SetTimer(period_micros);
}

void Sampler::Stop() {
  SetTimer(0);
  signal(SIGPROF, SIG_IGN);
}

size_t Sampler::samples() { return g_count; }
size_t Sampler::dropped() { return g_dropped; }

bool Sampler::WriteTo(const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uintptr_t bias = 0;
  dl_iterate_phdr(MainBias, &bias);
  fprintf(f, "bias %lx\n", static_cast<unsigned long>(bias));
  for (size_t s = 0; s < g_count; ++s) {
    const Sample& sample = g_samples[s];
    for (uint32_t d = 0; d < sample.depth; ++d) {
      fprintf(f, d == 0 ? "%lx" : " %lx",
              static_cast<unsigned long>(sample.pcs[d]));
    }
    fputc('\n', f);
  }
  return fclose(f) == 0;
}

}  // namespace perfbench

// --- Counting global allocator ---------------------------------------------------
// Every replaceable form routes through these two helpers so allocs_per_op
// counts each heap allocation the program makes exactly once.

namespace {

void* CountedAlloc(size_t size) {
  perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  return malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(size_t size, std::align_val_t align) {
  perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  const size_t alignment = static_cast<size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t size) { return operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(size_t size, std::align_val_t align) {
  void* p = CountedAlignedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { free(p); }
void operator delete[](void* p) noexcept { free(p); }
void operator delete(void* p, size_t) noexcept { free(p); }
void operator delete[](void* p, size_t) noexcept { free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { free(p); }
void operator delete(void* p, std::align_val_t) noexcept { free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  free(p);
}
