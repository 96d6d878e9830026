#!/usr/bin/env bash
# Builds bench_e2e (Release, with the dflow sources under src/) and runs it.
#
#   bash bench/e2e/run.sh --seed N [--workload W] [--seconds S] [--trace 0|1]
#                         [--out DIR]
#
# With --workload, runs that one workload and passes its output through:
# "workload metric value unit" lines, then one JSON result line. Without
# it, runs every workload, each in its own process, and merges their
# results into DIR/results.json. Result files go to DIR (default
# .bench_build/e2e-results); build output goes to stderr. Exits non-zero
# if the build fails or any output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "${here}/../.." && pwd)"
build="${root}/.bench_build/e2e"
out="${root}/.bench_build/e2e-results"
workload=""
seed=""
seconds=10
trace=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --trace) trace="${2:?--trace needs a value}"; shift 2 ;;
    --out) out="${2:?--out needs a value}"; shift 2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [[ -z "${seed}" ]]; then
  echo "run.sh: --seed is required" >&2
  exit 2
fi
if [[ ! -f "${root}/src/CMakeLists.txt" ]]; then
  echo "run.sh: dflow sources not found under ${root}/src" >&2
  exit 1
fi

# Keep compiler temporaries inside the checkout too.
export TMPDIR="${root}/.bench_build/tmp"
mkdir -p "${TMPDIR}"
if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
  fi
  cmake -S "${here}" -B "${build}" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs="$(nproc 2>/dev/null || echo 2)"
cmake --build "${build}" -j "${jobs}" >&2

DFLOW_GIT_REV=unknown
if [[ -e "${root}/.git" ]]; then
  DFLOW_GIT_REV="$(git -C "${root}" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export DFLOW_GIT_REV
mkdir -p "${out}"

run_one() {
  local name="$1"
  local suffix=""
  [[ "${trace}" == "1" ]] && suffix="-traced"
  "${build}/bench_e2e" --workload "${name}" --seed "${seed}" \
    --seconds "${seconds}" --trace "${trace}" \
    --out "${out}/${name}${suffix}.json" \
    --workdir "${root}/.bench_build/e2e-work/${name}-$$"
}

if [[ -n "${workload}" ]]; then
  run_one "${workload}"
  exit $?
fi

status=0
files=()
for name in serve_hot serve_cold kv_mixed survey_block; do
  run_one "${name}" || status=1
  suffix=""
  [[ "${trace}" == "1" ]] && suffix="-traced"
  files+=("${out}/${name}${suffix}.json")
done
{
  echo '{"runs": ['
  first=1
  for file in "${files[@]}"; do
    [[ -f "${file}" ]] || continue
    [[ ${first} -eq 1 ]] || echo ','
    cat "${file}"
    first=0
  done
  echo ']}'
} > "${out}/results.json"
echo "results: ${out}/results.json" >&2
exit "${status}"
