// Umbrella header for the campaign subsystem: spec -> expand -> run ->
// sinks/aggregates. See docs/campaign.md for the workflow.
#pragma once

#include "reap/campaign/aggregate.hpp"    // IWYU pragma: export
#include "reap/campaign/journal.hpp"      // IWYU pragma: export
#include "reap/campaign/progress.hpp"     // IWYU pragma: export
#include "reap/campaign/report.hpp"       // IWYU pragma: export
#include "reap/campaign/result_sink.hpp"  // IWYU pragma: export
#include "reap/campaign/runner.hpp"       // IWYU pragma: export
#include "reap/campaign/seed.hpp"         // IWYU pragma: export
#include "reap/campaign/spec.hpp"         // IWYU pragma: export
#include "reap/campaign/trace_cache.hpp"  // IWYU pragma: export
#include "reap/campaign/walk_groups.hpp"  // IWYU pragma: export
