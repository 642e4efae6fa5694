# Keeps the synchronous round in one place (ctest label `lint`).
#
# Fails if a message-fault salt (kSaltDrop / kSaltDup / kSaltDelay /
# kSaltReorder, amount salts included) or a class deriving from
# congest::Context appears in src/ outside the files that own them:
# congest/fault.* (the plan and its hashes), congest/kernel.* (the one
# step kernel and its EngineContext) and congest/resilient.cpp (the ARQ
# wrapper's inner context, which has a different contract).
#
#   cmake -DSRC_DIR=<repo>/src -P tests/lint_round_kernel.cmake
if(NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<repo>/src -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}"
     "${SRC_DIR}/*.hpp" "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.h" "${SRC_DIR}/*.cc")
list(LENGTH sources checked)
if(checked EQUAL 0)
  message(FATAL_ERROR "no sources under ${SRC_DIR}")
endif()

set(violations "")
foreach(rel IN LISTS sources)
  if(rel MATCHES "^congest/(fault|kernel)\\.[a-z]+$" OR
     rel STREQUAL "congest/resilient.cpp")
    continue()
  endif()
  file(READ "${SRC_DIR}/${rel}" text)
  if(text MATCHES "kSalt(Drop|Dup|Delay|Reorder)")
    list(APPEND violations "${rel}: message-fault salt ${CMAKE_MATCH_0}")
  endif()
  # A class head whose base list names Context (also congest::Context).
  if(text MATCHES
     "(class|struct)[^;{}()]*:[^;{}()]*[: \t\r\n]Context[ \t\r\n]*[{,]")
    list(APPEND violations "${rel}: class deriving from Context")
  endif()
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR
          "per-node round semantics outside congest/kernel:\n  ${report}")
endif()
message(STATUS "round kernel lint: ${checked} files clean")
