package repro.perfbench

import com.fasterxml.jackson.databind.json.JsonMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule

/** JSON text of Scala values (maps keep their order; `None` is `null`). */
object Json {
  private val mapper = JsonMapper.builder().addModule(DefaultScalaModule).build()

  def apply(v: Any): String = mapper.writeValueAsString(v)
}
