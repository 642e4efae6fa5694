# Keeps the synchronous round and the LOCAL augmentation engine in one
# place each (ctest label `lint`).
#
# Rule 1 fails if a message-fault salt (kSaltDrop / kSaltDup / kSaltDelay
# / kSaltReorder, amount salts included) or a class deriving from
# congest::Context appears in src/ outside the files that own them:
# congest/fault.* (the plan and its hashes), congest/kernel.* (the one
# step kernel and its EngineContext) and congest/resilient.cpp (the ARQ
# wrapper's inner context, which has a different contract).
#
# Rule 2 keeps one round loop: outside congest/kernel.* and the one
# driver, congest/network.cpp (Network::run), no file calls the
# driver-only kernel entry points step_node, finish_route, advance_round,
# close_run or undo_steps, or uses RoundRollback. A multi-process run
# plugs into the driver through congest::RoundBarrier instead.
#
# Rule 3 keeps one LOCAL augmentation engine: outside
# core/local_augment.hpp, no file names the VIEW record kind (kViewMsg).
# Algorithms 1 + 2 and the (1 - eps)-MWM remark supply a policy to its one
# node process instead of copying it.
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
  file(READ "${SRC_DIR}/${rel}" text)
  if(NOT (rel MATCHES "^congest/(fault|kernel)\\.[a-z]+$" OR
          rel STREQUAL "congest/resilient.cpp"))
    if(text MATCHES "kSalt(Drop|Dup|Delay|Reorder)")
      list(APPEND violations "${rel}: message-fault salt ${CMAKE_MATCH_0}")
    endif()
    # A class head whose base list names Context (also congest::Context).
    if(text MATCHES
       "(class|struct)[^;{}()]*:[^;{}()]*[: \t\r\n]Context[ \t\r\n]*[{,]")
      list(APPEND violations "${rel}: class deriving from Context")
    endif()
  endif()
  if(NOT (rel MATCHES "^congest/kernel\\.[a-z]+$" OR
          rel STREQUAL "congest/network.cpp"))
    if(text MATCHES
       "(^|[^A-Za-z0-9_])(step_node|finish_route|advance_round|close_run|undo_steps)[ \t\r\n]*\\(")
      list(APPEND violations "${rel}: round-driver call ${CMAKE_MATCH_2}()")
    endif()
    if(text MATCHES "RoundRollback")
      list(APPEND violations "${rel}: RoundRollback outside the round driver")
    endif()
  endif()
  if(NOT rel STREQUAL "core/local_augment.hpp" AND text MATCHES "kViewMsg")
    list(APPEND violations "${rel}: LOCAL view record kind outside core/local_augment.hpp")
  endif()
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR
          "round or LOCAL engine semantics outside their owners:\n  ${report}")
endif()
message(STATUS "round kernel lint: ${checked} files clean")
