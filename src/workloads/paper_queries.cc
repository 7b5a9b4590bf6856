#include "src/workloads/paper_queries.h"

namespace oodb {

Result<LogicalExprPtr> BuildPaperQuery(int n, const PaperDb& db,
                                       QueryContext* ctx) {
  ctx->catalog = &db.catalog;
  const char* text;
  switch (n) {
    case 1:
      text = kQuery1Text;
      break;
    case 2:
      text = kQuery2Text;
      break;
    case 3:
      text = kQuery3Text;
      break;
    case 4:
      text = kQuery4Text;
      break;
    default:
      return Status::InvalidArgument("paper query number must be 1-4");
  }
  return ParseAndSimplify(text, ctx);
}

std::string JoinChainQueryText(int width, int paths, const std::string& extra) {
  std::string text = "SELECT e1.name FROM Employee e1 IN Employees";
  for (int i = 2; i <= width; ++i) {
    text += ", Employee e" + std::to_string(i) + " IN Employees";
  }
  text += " WHERE ";
  for (int i = 2; i <= width; ++i) {
    if (i > 2) text += " && ";
    text += "e1.name == e" + std::to_string(i) + ".name";
  }
  if (paths >= 1) text += " && e1.dept.floor == 3";
  if (paths >= 2) text += " && e2.job.name == \"x\"";
  return text + extra + ";";
}

}  // namespace oodb
