// A read-only view of a Database's protocol rule groups.  The group tables
// themselves are built by vpm::compile() and live in the Database
// (Database::group()); this view compiles nothing.
//
// Kept only because the sensor benchmark's traced replay
// (sensorbench/src/traced.cpp) names it.  Nothing else may use it: the next
// benchmark change moves traced.cpp onto Database::group() and deletes this
// header.
#pragma once

#include <memory>
#include <stdexcept>

#include "core/database.hpp"

namespace vpm::ids {

class GroupedRules {
 public:
  // Throws std::invalid_argument on a null database.
  explicit GroupedRules(DatabasePtr db) : db_(std::move(db)) {
    if (db_ == nullptr) throw std::invalid_argument("GroupedRules: null database");
  }

  const Matcher& matcher_for(pattern::Group g) const { return *db_->group(g).matcher; }
  const core::PrefilterPtr& prefilter_for(pattern::Group g) const {
    return db_->prefilter_for(g);
  }
  const DatabasePtr& database() const { return db_; }

 private:
  DatabasePtr db_;
};

using GroupedRulesPtr = std::shared_ptr<const GroupedRules>;

}  // namespace vpm::ids
