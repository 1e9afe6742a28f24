// Machine-readable catalog emission: an index.json alongside the HTML
// site, so downstream tools (course planners, other repositories) can
// consume the curation without scraping pages.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "pdcu/core/repository.hpp"

namespace pdcu::site {

/// Renders one activity as a JSON object.
std::string activity_json(const core::Activity& activity);

/// Renders the whole catalog: {"activities": [...], "coverage": {...},
/// "stats": {...}} with the Table I/II numbers embedded.
std::string render_json_catalog(const core::Repository& repo);

/// The same catalog from each activity's already-rendered activity_json,
/// one per activity of `repo`, in order.
std::string render_json_catalog(
    const core::Repository& repo,
    const std::vector<std::string_view>& activity_objects);

}  // namespace pdcu::site
