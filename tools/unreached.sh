#!/usr/bin/env bash
# Lists the iotsim library functions that no program reaches.
#
#   tools/unreached.sh <build-dir>
#
# Configures a separate build in <build-dir> with -O0 -ffunction-sections
# -fkeep-inline-functions, which emits every header-inline member as a weak
# symbol (nm type W), and builds the library, every bench and every example;
# the perfbench sources are compiled as they are. Each program is then
# relinked with the whole of libiotsim.a and --gc-sections. Two kinds of
# library function are unreached:
#   - out-of-line (T/t): its .text section is discarded by every program;
#   - header-inline (W): no linked program defines it.
# Names are demangled and limited to iotsim:: functions. Constructors and
# destructors are left out (most are implicit or defaulted), and so are
# std:: templates instantiated for iotsim types. Coroutine
# [clone .actor/.destroy] copies and lambdas are dropped; their enclosing
# function stands for them.
#
# Prints the unreached functions and exits 0 when they are exactly the
# keep-list below. Exits 1 on an unreached function that is not on the
# keep-list (delete it, or keep it with a reason) and on a keep-list entry
# that some program now reaches (a stale entry).
set -euo pipefail
export LC_ALL=C

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi

# Kept on purpose although no program reaches them: "name | reason".
keep_list() {
  cat <<'EOF'
iotsim::check::(anonymous namespace)::describe(iotsim::check::FailureInfo const&) | safety code: the message of a failed IOTSIM_CHECK
iotsim::check::format[abi:cxx11]() | safety code: the message of an IOTSIM_CHECK without format arguments
iotsim::check::set_failure_handler(void (*)(iotsim::check::FailureInfo const&)) | safety code: tests install the throwing handler to exercise IOTSIM_CHECK
iotsim::check::throwing_handler(iotsim::check::FailureInfo const&) | safety code: the handler tests install to exercise IOTSIM_CHECK
iotsim::codecs::jpeg::mean_abs_error(iotsim::codecs::jpeg::Image const&, iotsim::codecs::jpeg::Image const&) | test oracle: JPEG decoder quality
iotsim::codecs::json::Value::find(std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> > const&) const | the scenario codec decodes through it
iotsim::codecs::json::Value::is_object() const | test oracle: operator[] turns a null value into an object
iotsim::codecs::json::Value::size() const | the scenario codec decodes through it
iotsim::codecs::util::(anonymous namespace)::build_reverse() | test oracle: the decode table of base64_decode
iotsim::codecs::util::base64_decode(std::basic_string_view<char, std::char_traits<char> >) | test oracle: base64 encode round-trip and robustness
iotsim::core::SweepRunner::cache_size() const | test oracle: the memo holds each distinct scenario once, nothing when off
iotsim::dsp::ifft(std::span<std::complex<double>, 18446744073709551615ul>) | test oracle: FFT round-trip
iotsim::energy::EnergyReport::busy_time(iotsim::energy::Routine) const | test oracle: a hub's busy-time slice equals the ledger's
iotsim::energy::McuPowerSpec::sleep_breakeven() const | test oracle: the default MCU can nap between 1 kHz samples
iotsim::energy::PowerStateMachine::routine() const | test oracle: the routine a processor's time is billed to
iotsim::env::GilbertElliottFaultProfile::in_burst() const | test oracle: the Gilbert-Elliott channel's hidden state
iotsim::hw::Bus::busy() const | test oracle: an occupation holds the bus
iotsim::sensors::Channels::operator[](unsigned long) const | test oracle: tests read sample channels through it
iotsim::sensors::operator==(iotsim::sensors::Blob const&, iotsim::sensors::Blob const&) | test oracle: tests compare sample payloads and frames
iotsim::sim::Arena::bytes_reserved() const | test oracle: freed blocks are reused, not reserved again
iotsim::sim::Arena::live_blocks() const | test oracle: coroutine frames return to their arena
iotsim::sim::CalendarQueue::bucket_count() const | test oracle: the calendar queue resizes its buckets
iotsim::sim::Duration::ms(long) | test input: exact durations; bench/fleet_contention's constexpr use folds away
iotsim::sim::Duration::us(long) | test input: exact durations
iotsim::sim::Rng::normal(double, double) | test input generator: noise on test signals
iotsim::sim::Signal::waiter_count() const | test oracle: a moved Signal hands its waiters over
iotsim::sim::SimMutex::locked() const | test oracle: the mutex is free once its holders finish
iotsim::sim::SimTime::to_ms() const | test oracle: tests read event instants in milliseconds
iotsim::trace::MemoryProfiler::live_heap_bytes() const | test oracle: app kernels free what they allocate
iotsim::trace::MemoryProfiler::live_stack_bytes() const | test oracle: app kernels pop every stack frame
iotsim::trace::PowerTrace::component_watts_at(unsigned long, iotsim::sim::SimTime) const | test oracle: the recorded trace agrees with the energy ledger
iotsim::trace::PowerTrace::joules_between(iotsim::sim::SimTime, iotsim::sim::SimTime) const | test oracle: the trace integral equals the energy ledger
EOF
}

root=$(cd "$(dirname "$0")/.." && pwd)
build=$1
flags="-O0 -ffunction-sections -fkeep-inline-functions"
jobs=$(nproc 2>/dev/null || echo 2)

# The programs link with --gc-sections too: without it, the libstdc++ inline
# functions that -fkeep-inline-functions emits fail to link.
cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=None -DCMAKE_CXX_FLAGS="$flags" \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
build=$(cd "$build" && pwd)

benches=()
for f in "$root"/bench/*.cpp; do benches+=("$(basename "$f" .cpp)"); done
examples=()
for f in "$root"/examples/*.cpp; do examples+=("$(basename "$f" .cpp)"); done
cmake --build "$build" -j "$jobs" --target iotsim "${benches[@]}" "${examples[@]}" >/dev/null

lib=$build/src/libiotsim.a
out=$build/unreached
rm -rf "$out"
mkdir -p "$out/bin" "$out/perfbench" "$out/gc"

# The library sections one program discards, as "member section" lines.
discarded() {
  sed -n "s/.*removing unused section '\(\.text\.[^']*\)' in file '[^']*libiotsim\.a(\([^)]*\))'.*/\2 \1/p" |
    sort -u
}

# CMake's own link line, with the whole library pulled in and gc on.
relink() {
  local dir=$1 name=$2 line
  line=$(<"$dir/CMakeFiles/$name.dir/link.txt")
  line=${line/..\/src\/libiotsim.a/-Wl,--whole-archive ..\/src\/libiotsim.a -Wl,--no-whole-archive}
  line=${line/ -o $name / -o $out\/bin\/$name }
  (cd "$dir" && eval "$line -Wl,--gc-sections -Wl,--print-gc-sections") 2>&1 |
    discarded >"$out/gc/$name"
}

for name in "${benches[@]}"; do relink "$build/bench" "$name"; done
for name in "${examples[@]}"; do relink "$build/examples" "$name"; done

cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")
objs=()
for f in "$root"/perfbench/src/*.cpp; do
  o=$out/perfbench/$(basename "$f" .cpp).o
  # shellcheck disable=SC2086
  "$cxx" -std=c++20 $flags -I"$root/src" -I"$root/perfbench/src" -c "$f" -o "$o"
  objs+=("$o")
done
"$cxx" "${objs[@]}" -o "$out/bin/perfbench" -Wl,--whole-archive "$lib" -Wl,--no-whole-archive \
  -pthread -Wl,--gc-sections -Wl,--print-gc-sections 2>&1 | discarded >"$out/gc/perfbench"

# Sections every program discarded.
set -- "$out"/gc/*
cp "$1" "$out/common"
shift
for f in "$@"; do
  comm -12 "$out/common" "$f" >"$out/common.next"
  mv "$out/common.next" "$out/common"
done

# Out-of-line library functions (T/t) as "member symbol" lines.
nm -A --defined-only "$lib" 2>/dev/null |
  sed -n 's/^[^:]*:\([^:]*\):[0-9a-f]* [Tt] \(.*\)$/\1 .text.\2/p' | sort -u >"$out/defined"

# Header-inline library functions (W) that no program defines. A COMDAT
# copy shows in the gc output even when another copy is kept, so the
# linked programs' symbol tables decide for these.
nm --defined-only "$lib" 2>/dev/null | sed -n 's/^[0-9a-f]* W \(.*\)$/\1/p' | sort -u >"$out/weak"
for bin in "$out"/bin/*; do nm --defined-only "$bin" | cut -d' ' -f3; done | sort -u >"$out/linked"

{
  comm -12 "$out/common" "$out/defined" | cut -d' ' -f2 | sed 's/^\.text\.//'
  comm -23 "$out/weak" "$out/linked"
} | c++filt | grep '^iotsim::' | grep -v -e '^[^(<]* std::' -e '\[clone \.actor\]' \
  -e '\[clone \.destroy\]' -e '{lambda' |
  grep -v -E -e '::~' -e '(^|::)([A-Za-z_][A-Za-z0-9_]*)(<.*>)?::\2\(' | sort -u >"$out/unreached"
keep_list | sed 's/ | .*$//' | sort -u >"$out/keep"

cat "$out/unreached"
status=0
while IFS= read -r name; do
  echo "unreached, not on the keep-list: $name" >&2
  status=1
done < <(comm -23 "$out/unreached" "$out/keep")
while IFS= read -r name; do
  echo "stale keep-list entry (now reached or gone): $name" >&2
  status=1
done < <(comm -13 "$out/unreached" "$out/keep")
exit "$status"
