# Golden digests of the identity artifacts listed in testing/golden.json.
#
# Check one artifact (what each `golden.<name>` ctest runs):
#   cmake -DSCM_BUILD_DIR=build -DARTIFACT=<name> -P testing/golden.cmake
# Regenerate every artifact and rewrite testing/golden.json:
#   cmake -DSCM_BUILD_DIR=build -P testing/golden.cmake
#
# An artifact's command runs in <build>/golden/<name>/ with its stdout in
# stdout.txt there. The command's first word is a program path relative to
# the build tree, and @SOURCE@ in any word expands to the source tree.
# "file" names what is hashed: a file the command writes into its working
# directory, or "-" for its stdout.
cmake_minimum_required(VERSION 3.25)

if(NOT SCM_BUILD_DIR)
  message(FATAL_ERROR "golden: pass -DSCM_BUILD_DIR=<build tree>")
endif()
get_filename_component(_build "${SCM_BUILD_DIR}" ABSOLUTE)
get_filename_component(_source "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
set(_golden_json "${CMAKE_CURRENT_LIST_DIR}/golden.json")
file(READ "${_golden_json}" _json)
string(JSON _count LENGTH "${_json}" artifacts)
math(EXPR _last "${_count} - 1")

# Runs artifact `index`'s command; sets <prefix>_path to the hashed file,
# <prefix>_bytes and <prefix>_sha256 to its size and digest, and
# <prefix>_command to the command as written in golden.json.
function(golden_run index prefix)
  string(JSON name GET "${_json}" artifacts ${index} name)
  string(JSON file GET "${_json}" artifacts ${index} file)
  string(JSON argc LENGTH "${_json}" artifacts ${index} command)
  math(EXPR last_arg "${argc} - 1")
  set(argv "")
  set(written "")
  foreach(a RANGE ${last_arg})
    string(JSON word GET "${_json}" artifacts ${index} command ${a})
    string(REPLACE "\\" "\\\\" quoted "${word}")
    string(REPLACE "\"" "\\\"" quoted "${quoted}")
    list(APPEND written "\"${quoted}\"")
    string(REPLACE "@SOURCE@" "${_source}" word "${word}")
    if(a EQUAL 0)
      set(word "${_build}/${word}")
    endif()
    list(APPEND argv "${word}")
  endforeach()
  list(JOIN written ", " written)

  set(dir "${_build}/golden/${name}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND ${argv}
                  WORKING_DIRECTORY "${dir}"
                  OUTPUT_FILE "${dir}/stdout.txt"
                  ERROR_FILE "${dir}/stderr.txt"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden ${name}: command exited with '${rc}'; see "
                        "${dir}/stderr.txt")
  endif()
  if(file STREQUAL "-")
    set(path "${dir}/stdout.txt")
  else()
    set(path "${dir}/${file}")
  endif()
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "golden ${name}: the command wrote no ${file}")
  endif()
  file(SIZE "${path}" bytes)
  file(SHA256 "${path}" sha256)
  set(${prefix}_path "${path}" PARENT_SCOPE)
  set(${prefix}_bytes ${bytes} PARENT_SCOPE)
  set(${prefix}_sha256 ${sha256} PARENT_SCOPE)
  set(${prefix}_command "${written}" PARENT_SCOPE)
endfunction()

if(DEFINED ARTIFACT)
  foreach(i RANGE ${_last})
    string(JSON name GET "${_json}" artifacts ${i} name)
    if(name STREQUAL ARTIFACT)
      set(_index ${i})
    endif()
  endforeach()
  if(NOT DEFINED _index)
    message(FATAL_ERROR "golden: no artifact named '${ARTIFACT}' in "
                        "${_golden_json}")
  endif()
  string(JSON _want_bytes GET "${_json}" artifacts ${_index} bytes)
  string(JSON _want_sha256 GET "${_json}" artifacts ${_index} sha256)
  golden_run(${_index} _got)
  if(NOT _got_sha256 STREQUAL _want_sha256)
    message(FATAL_ERROR
      "golden ${ARTIFACT}: ${_got_path} differs from the committed digest: "
      "committed ${_want_bytes} bytes (sha256 ${_want_sha256}), regenerated "
      "${_got_bytes} bytes (sha256 ${_got_sha256}). If the change is "
      "intended, regenerate with `cmake -DSCM_BUILD_DIR=<build> -P "
      "testing/golden.cmake` and say in CHANGES.md why it moved.")
  endif()
  message(STATUS "golden ${ARTIFACT}: ${_got_bytes} bytes, sha256 matches")
  return()
endif()

set(_out "{\n  \"version\": 1,\n  \"artifacts\": [")
foreach(i RANGE ${_last})
  string(JSON _name GET "${_json}" artifacts ${i} name)
  string(JSON _file GET "${_json}" artifacts ${i} file)
  golden_run(${i} _got)
  message(STATUS "golden ${_name}: ${_got_bytes} bytes, sha256 ${_got_sha256}")
  if(i GREATER 0)
    string(APPEND _out ",")
  endif()
  string(APPEND _out "\n    {\"name\": \"${_name}\",\n"
                     "     \"command\": [${_got_command}],\n"
                     "     \"file\": \"${_file}\",\n"
                     "     \"bytes\": ${_got_bytes},\n"
                     "     \"sha256\": \"${_got_sha256}\"}")
endforeach()
string(APPEND _out "\n  ]\n}\n")
file(WRITE "${_golden_json}" "${_out}")
