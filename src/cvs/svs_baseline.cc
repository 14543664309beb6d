#include "cvs/svs_baseline.h"

namespace eve {

Result<CvsResult> SvsSynchronizeDeleteRelation(const ViewDefinition& view,
                                               const std::string& relation,
                                               const Mkb& mkb,
                                               const Mkb& mkb_prime,
                                               CvsOptions options) {
  options.replacement.max_extra_relations = 0;
  return SynchronizeDeleteRelation(view, relation, SyncContext{mkb, mkb_prime},
                                   options);
}

Result<CvsResult> SvsSynchronizeDeleteAttribute(const ViewDefinition& view,
                                                const std::string& relation,
                                                const std::string& attribute,
                                                const Mkb& mkb,
                                                const Mkb& mkb_prime,
                                                CvsOptions options) {
  options.replacement.max_extra_relations = 0;
  return SynchronizeDeleteAttribute(view, relation, attribute,
                                    SyncContext{mkb, mkb_prime}, options);
}

}  // namespace eve
