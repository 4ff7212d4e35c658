//===- backend/Backend.h - Execution backend name --------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Specialized chains are bytecode run by the VM's predecoded engine, so
/// there is exactly one execution backend. The benchmark program dycbench
/// (perfbench/) records its name in every result's pinned configuration
/// through the two calls below, which is the only reason they exist.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SRC_BACKEND_BACKEND_H
#define DYC_SRC_BACKEND_BACKEND_H

namespace dyc {

enum class ExecBackend { Default };

namespace backend {

enum class BackendKind { Bytecode };

inline BackendKind resolveBackendKind(ExecBackend) {
  return BackendKind::Bytecode;
}

inline const char *backendName(BackendKind) { return "bytecode"; }

} // namespace backend
} // namespace dyc

#endif // DYC_SRC_BACKEND_BACKEND_H
