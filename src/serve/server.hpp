#pragma once
// neuro::serve::Server — the single-model name for the serving engine.
//
// The engine is serve::ModelRouter (router.hpp, docs/ARCHITECTURE.md §8
// and §12). Constructed from one CompiledModel with no fleet directory it
// serves exactly that model as its permanently pinned default entry — the
// fleet of one — so single-model callers keep the Server /
// ServerOptions spelling without a second class behind it.

#include "serve/router.hpp"

namespace neuro::serve {

using ServerOptions = RouterOptions;
using Server = ModelRouter;

}  // namespace neuro::serve
